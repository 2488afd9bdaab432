package coherence

import (
	"fmt"

	"repro/internal/mem"
)

// mshrTable maps lines to live MSHR entries. It replaces the previous
// map[mem.Line]*mshr so the miss path allocates nothing in steady state
// (Go map inserts allocate buckets; the table is a flat slice probed open-
// addressed) and so iteration order is structural rather than randomized.
//
// Design points:
//
//   - linear probing with multiplicative (Fibonacci) hashing: the live
//     population is MSHR-sized (a handful of entries), so probe chains are
//     short even under the pathological line patterns tests generate;
//   - backward-shift deletion instead of tombstones: chains stay contiguous
//     forever, so lookups never degrade over a long run and the table never
//     needs a cleanup rehash;
//   - live and parked counters are maintained on every mutation, keeping
//     MSHRCount and ParkedRequests O(1) for the telemetry probes;
//   - the capacity starts MSHR-sized and doubles only if a workload ever
//     holds more concurrently-parked requests than any current one does
//     (growth is deterministic: it depends only on the insertion history).
type mshrTable struct {
	slots  []*mshr
	mask   uint64
	shift  uint // 64 - log2(len(slots)), for the multiplicative hash
	live   int
	parked int
}

// mshrTableCap is the initial slot count. 64 slots at the 1/2 max load
// factor cover 32 concurrent MSHRs — far beyond what an in-order core with
// one demand miss plus abort residue ever holds.
const mshrTableCap = 64

func newMshrTable(capacity int) mshrTable {
	if capacity&(capacity-1) != 0 || capacity == 0 {
		panic(fmt.Sprintf("coherence: MSHR table capacity %d not a power of two", capacity))
	}
	shift := uint(64)
	for c := capacity; c > 1; c >>= 1 {
		shift--
	}
	return mshrTable{slots: make([]*mshr, capacity), mask: uint64(capacity - 1), shift: shift}
}

// home returns the preferred slot of a line.
func (t *mshrTable) home(l mem.Line) uint64 {
	return (uint64(l) * 0x9E3779B97F4A7C15) >> t.shift
}

// lookup returns the entry for the line, or nil.
func (t *mshrTable) lookup(l mem.Line) *mshr {
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

// insert adds a fresh entry. Inserting a line that is already present is a
// controller bug (the map version would have silently leaked the old MSHR).
func (t *mshrTable) insert(ms *mshr) {
	if 2*(t.live+1) > len(t.slots) {
		t.grow()
	}
	for i := t.home(ms.line); ; i = (i + 1) & t.mask {
		e := t.slots[i]
		if e == nil {
			t.slots[i] = ms
			t.live++
			if ms.state == mshrParked {
				t.parked++
			}
			return
		}
		if e.line == ms.line {
			panic(fmt.Sprintf("coherence: duplicate MSHR insert for line %d", ms.line))
		}
	}
}

// remove deletes the entry for the line, reporting whether it was present.
// Backward-shift deletion: every entry after the hole that is allowed to
// move closer to its home slot does, so probe chains stay contiguous and no
// tombstones accumulate.
func (t *mshrTable) remove(l mem.Line) bool {
	if t.live == 0 {
		return false
	}
	i := t.home(l)
	for {
		e := t.slots[i]
		if e == nil {
			return false
		}
		if e.line == l {
			break
		}
		i = (i + 1) & t.mask
	}
	if t.slots[i].state == mshrParked {
		t.parked--
	}
	t.live--
	j := i
	for {
		t.slots[i] = nil
		for {
			j = (j + 1) & t.mask
			e := t.slots[j]
			if e == nil {
				return true
			}
			// The entry at j stays put iff its home slot lies cyclically in
			// (i, j] — moving it to i would then strand it before its home.
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

// setParked marks an entry parked, keeping the parked counter exact.
func (t *mshrTable) setParked(ms *mshr) {
	if ms.state != mshrParked {
		ms.state = mshrParked
		t.parked++
	}
}

// setInFlight marks an entry in flight again (wake-up or timed retry).
func (t *mshrTable) setInFlight(ms *mshr) {
	if ms.state == mshrParked {
		t.parked--
	}
	ms.state = mshrInFlight
}

// grow doubles the table, reinserting every live entry. Growth preserves
// determinism: the new layout depends only on the set of live lines.
func (t *mshrTable) grow() {
	old := t.slots
	*t = newMshrTable(2 * len(old))
	for _, ms := range old {
		if ms != nil {
			t.insert(ms)
		}
	}
}
