package htm

import "math/bits"

// WakeSet is the per-L1 wake-up table of the recovery mechanism (the green
// shaded table of the paper's Fig. 2): the set of cores whose requests this
// cache rejected and that must be woken when the local transaction commits
// or aborts. The first 64 cores live in an inline word — zero allocations
// and the exact cost of the old raw bitset on the paper's 32-core machine —
// and bigger machines spill to extension words allocated once and reused
// across drains, so the scaled machines (64–1024 cores, DESIGN.md §13) pay
// one allocation per L1 lifetime, not per wake round.
type WakeSet struct {
	w0      uint64
	ext     []uint64 // words 1..: cores 64..; nil on ≤64-core machines
	scratch []uint64 // drain snapshot of ext, reused across drains
}

// Add records a core to wake.
func (w *WakeSet) Add(core int) {
	if core < 0 {
		panic("htm: WakeSet core out of range")
	}
	wi := core >> 6
	if wi == 0 {
		w.w0 |= 1 << uint(core&63)
		return
	}
	for len(w.ext) < wi {
		w.ext = append(w.ext, 0)
	}
	w.ext[wi-1] |= 1 << uint(core&63)
}

// Empty reports whether no cores are pending.
func (w *WakeSet) Empty() bool {
	if w.w0 != 0 {
		return false
	}
	for _, v := range w.ext {
		if v != 0 {
			return false
		}
	}
	return true
}

// Contains reports whether the core is pending a wake-up.
func (w *WakeSet) Contains(core int) bool {
	wi := core >> 6
	if wi == 0 {
		return w.w0&(1<<uint(core&63)) != 0
	}
	return wi-1 < len(w.ext) && w.ext[wi-1]&(1<<uint(core&63)) != 0
}

// Drain invokes fn for every pending core in ascending order and clears the
// set. This is the commit/abort-time table scan of paper §III-A. The whole
// set is snapshotted before the first fn call, so cores fn re-adds are kept
// for the next drain rather than woken twice in this one.
func (w *WakeSet) Drain(fn func(core int)) {
	b := w.w0
	w.w0 = 0
	w.scratch = append(w.scratch[:0], w.ext...)
	for i := range w.ext {
		w.ext[i] = 0
	}
	drainWord(b, 0, fn)
	for i, v := range w.scratch {
		drainWord(v, (i+1)*64, fn)
	}
}

func drainWord(b uint64, base int, fn func(core int)) {
	for b != 0 {
		c := bits.TrailingZeros64(b)
		fn(base + c)
		b &^= 1 << uint(c)
	}
}
