package coherence

import (
	"fmt"

	"repro/internal/mem"
)

// dirTable maps lines to directory entries for one bank. It replaces the
// previous map[mem.Line]*dirLine: directory lookups run once per message on
// the hottest simulator path, and the map's hash-and-bucket walk plus the
// per-line &dirLine{} allocations showed up prominently in whole-run
// profiles. The table is a flat open-addressed slice (same design as
// mshrTable: Fibonacci hashing, linear probing, backward-shift deletion) and
// recycled dirLines come from a slab-backed free list, so steady-state
// directory churn — lines tracked, back-invalidated, re-tracked — allocates
// nothing.
type dirTable struct {
	slots []*dirLine
	mask  uint64
	shift uint // 64 - log2(len(slots)), for the multiplicative hash
	live  int

	// free holds recycled dirLines; slabs are allocated 64 entries at a
	// time so tracking N lines costs N/64 allocations, not N.
	free []*dirLine
}

// dirTableCap is the initial slot count. The working set a bank tracks is
// its share of the workload footprint; 256 slots cover 128 live lines
// before the first (deterministic) doubling.
const dirTableCap = 256

const dirSlabSize = 64

func newDirTable(capacity int) dirTable {
	if capacity&(capacity-1) != 0 || capacity == 0 {
		panic(fmt.Sprintf("coherence: directory table capacity %d not a power of two", capacity))
	}
	shift := uint(64)
	for c := capacity; c > 1; c >>= 1 {
		shift--
	}
	return dirTable{slots: make([]*dirLine, capacity), mask: uint64(capacity - 1), shift: shift}
}

// home returns the preferred slot of a line.
func (t *dirTable) home(l mem.Line) uint64 {
	return (uint64(l) * 0x9E3779B97F4A7C15) >> t.shift
}

// lookup returns the entry for the line, or nil.
func (t *dirTable) lookup(l mem.Line) *dirLine {
	if t.live == 0 {
		return nil
	}
	for i := t.home(l); ; i = (i + 1) & t.mask {
		e := t.slots[i]
		if e == nil {
			return nil
		}
		if e.line == l {
			return e
		}
	}
}

// getOrCreate returns the entry for the line, materializing an idle one from
// the free list if the directory is not yet tracking it.
func (t *dirTable) getOrCreate(l mem.Line) *dirLine {
	if d := t.lookup(l); d != nil {
		return d
	}
	d := t.alloc()
	d.line = l
	t.insert(d)
	return d
}

// alloc hands out a reset dirLine, refilling the free list a slab at a time.
func (t *dirTable) alloc() *dirLine {
	if len(t.free) == 0 {
		slab := make([]dirLine, dirSlabSize)
		for i := range slab {
			t.free = append(t.free, &slab[i])
		}
	}
	d := t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	queue := d.queue[:0] // keep the queue's backing array across reuse
	d.sharers.Clear()    // ditto the sharer set's extension words (>64 cores)
	sharers := d.sharers
	*d = dirLine{owner: -1, queue: queue, sharers: sharers}
	return d
}

// insert adds a fresh entry; the line must not already be present.
func (t *dirTable) insert(d *dirLine) {
	if 2*(t.live+1) > len(t.slots) {
		t.grow()
	}
	for i := t.home(d.line); ; i = (i + 1) & t.mask {
		e := t.slots[i]
		if e == nil {
			t.slots[i] = d
			t.live++
			return
		}
		if e.line == d.line {
			panic(fmt.Sprintf("coherence: duplicate directory insert for line %d", d.line))
		}
	}
}

// remove untracks the line, recycling its dirLine. Backward-shift deletion
// keeps probe chains contiguous (see mshrTable.remove for the invariant).
func (t *dirTable) remove(l mem.Line) {
	if t.live == 0 {
		return
	}
	i := t.home(l)
	for {
		e := t.slots[i]
		if e == nil {
			return
		}
		if e.line == l {
			break
		}
		i = (i + 1) & t.mask
	}
	t.free = append(t.free, t.slots[i])
	t.live--
	j := i
	for {
		t.slots[i] = nil
		for {
			j = (j + 1) & t.mask
			e := t.slots[j]
			if e == nil {
				return
			}
			h := t.home(e.line)
			inRange := false
			if i <= j {
				inRange = i < h && h <= j
			} else {
				inRange = i < h || h <= j
			}
			if !inRange {
				break
			}
		}
		t.slots[i] = t.slots[j]
		i = j
	}
}

// grow doubles the table, reinserting every live entry. Growth is
// deterministic: the new layout depends only on the set of tracked lines.
func (t *dirTable) grow() {
	old := t.slots
	free := t.free
	*t = newDirTable(2 * len(old))
	t.free = free
	for _, d := range old {
		if d != nil {
			t.insert(d)
		}
	}
}
