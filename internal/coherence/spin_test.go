package coherence

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
)

// spinHits calls SpinHit n times on core and checks every call hit without
// a message: each re-read is Hits++ and nothing else.
func spinHits(t *testing.T, sys *System, core, n int) {
	t.Helper()
	l1 := sys.L1s[core]
	hits, misses, msgs := l1.Hits, l1.Misses, sys.Net.Messages
	for i := 0; i < n; i++ {
		if !l1.SpinHit() {
			t.Fatalf("SpinHit %d on core %d missed a held lock line", i, core)
		}
	}
	if l1.Hits != hits+uint64(n) || l1.Misses != misses || sys.Net.Messages != msgs {
		t.Fatalf("%d spin hits moved hits %d→%d, misses %d→%d, messages %d→%d",
			n, hits, l1.Hits, misses, l1.Misses, msgs, sys.Net.Messages)
	}
}

// spinTakesFullPath checks that core's next SpinHit declines and that the
// re-read it falls back to is a real miss sending a GetS to the home bank.
func spinTakesFullPath(t *testing.T, es *engineSys, core int) {
	t.Helper()
	e, sys := es.e, es.sys
	l1 := sys.L1s[core]
	if l1.SpinHit() {
		t.Fatal("SpinHit reused a cached entry after the lock line changed")
	}
	home := sys.Banks[sys.LockLine.Bank(sys.Cores)]
	misses, reqs := l1.Misses, home.Requests
	access(t, e, sys, core, sys.LockLine, false)
	drain(e)
	if l1.Misses != misses+1 || home.Requests != reqs+1 {
		t.Fatalf("re-read after the change: misses %d→%d, home requests %d→%d; want a miss and a GetS",
			misses, l1.Misses, reqs, home.Requests)
	}
	if !st(sys, core, sys.LockLine).Valid() {
		t.Fatal("the GetS did not refill the lock line")
	}
}

func spinSys(t *testing.T) *engineSys {
	p := DefaultParams()
	p.Cores, p.MeshW, p.MeshH = 4, 2, 2
	p.LLCSize = 1 << 20
	return newEngineSys(t, p, baseCfg())
}

// TestSpinHitDroppedOnInv: a sharer spinning on the lock line loses it to
// another core's store (Inv).
func TestSpinHitDroppedOnInv(t *testing.T) {
	es := spinSys(t)
	e, sys, lock := es.e, es.sys, es.sys.LockLine
	access(t, e, sys, 0, lock, false)
	access(t, e, sys, 1, lock, false) // core 0 downgrades to Shared
	drain(e)
	spinHits(t, sys, 0, 3)
	access(t, e, sys, 2, lock, true)
	drain(e)
	if st(sys, 0, lock) != cache.Invalid {
		t.Fatalf("core 0 lock line = %v after the remote store, want I", st(sys, 0, lock))
	}
	spinTakesFullPath(t, es, 0)
}

// TestSpinHitDroppedOnFwdGetM: the exclusive owner spinning on the lock
// line surrenders it to a remote store (FwdGetM).
func TestSpinHitDroppedOnFwdGetM(t *testing.T) {
	es := spinSys(t)
	e, sys, lock := es.e, es.sys, es.sys.LockLine
	access(t, e, sys, 0, lock, false)
	drain(e)
	if st(sys, 0, lock) != cache.Exclusive {
		t.Fatalf("core 0 lock line = %v, want E", st(sys, 0, lock))
	}
	spinHits(t, sys, 0, 3)
	access(t, e, sys, 1, lock, true)
	drain(e)
	spinTakesFullPath(t, es, 0)
}

// TestSpinHitDroppedOnRecall: the LLC evicts the lock line and recalls the
// spinning core's copy (Inv with Requester == -1).
func TestSpinHitDroppedOnRecall(t *testing.T) {
	p := DefaultParams()
	p.Cores, p.MeshW, p.MeshH = 4, 2, 2
	p.LLCSize, p.LLCWays = 32*1024, 2
	es := newEngineSys(t, p, baseCfg())
	e, sys, lock := es.e, es.sys, es.sys.LockLine
	access(t, e, sys, 0, lock, false)
	drain(e)
	spinHits(t, sys, 0, 3)
	home := sys.Banks[lock.Bank(sys.Cores)]
	for l := mem.Line(sys.Cores); st(sys, 0, lock) != cache.Invalid; l += mem.Line(sys.Cores) {
		if l > 1<<16 {
			t.Fatal("no LLC recall of the lock line")
		}
		access(t, e, sys, 1, l, true) // same home bank: fills its sets
		drain(e)
	}
	if home.BackInvals == 0 {
		t.Fatal("the lock line left core 0 without a back-invalidation")
	}
	spinTakesFullPath(t, es, 0)
}

// TestSpinRestartNeverReusesStaleEntry: after a spin ends the core's own
// accesses evict the lock line (no message reaches the L1 for it), and its
// way is refilled with another line. A new spin must not hit the old entry.
func TestSpinRestartNeverReusesStaleEntry(t *testing.T) {
	es := spinSys(t)
	e, sys, lock := es.e, es.sys, es.sys.LockLine
	l1 := sys.L1s[0]
	access(t, e, sys, 0, lock, false)
	drain(e)
	spinHits(t, sys, 0, 2)
	l1.EndSpin()
	sets, ways := l1.Array().Sets(), l1.Array().Ways()
	for k := 1; k <= ways; k++ {
		access(t, e, sys, 0, lock+mem.Line(k*sets), false)
		drain(e)
	}
	if st(sys, 0, lock) != cache.Invalid {
		t.Fatal("the lock line survived a full set of other fills")
	}
	spinTakesFullPath(t, es, 0)
}

// TestSpinHitRefreshesLRU: a cached re-read refreshes the lock line's LRU
// stamp like a Lookup hit, so a later fill of its set evicts the oldest
// other line and keeps the lock line.
func TestSpinHitRefreshesLRU(t *testing.T) {
	es := spinSys(t)
	e, sys, lock := es.e, es.sys, es.sys.LockLine
	l1 := sys.L1s[0]
	access(t, e, sys, 0, lock, false)
	drain(e)
	spinHits(t, sys, 0, 1) // caches the entry
	sets, ways := l1.Array().Sets(), l1.Array().Ways()
	other := func(k int) mem.Line { return lock + mem.Line(k*sets) }
	for k := 1; k < ways; k++ { // fill the rest of the set: the lock line is LRU
		access(t, e, sys, 0, other(k), false)
		drain(e)
	}
	spinHits(t, sys, 0, 1) // cached path: the lock line becomes MRU
	access(t, e, sys, 0, other(ways), false)
	drain(e)
	if !st(sys, 0, lock).Valid() || st(sys, 0, other(1)) != cache.Invalid {
		t.Fatalf("fill evicted the wrong way: lock %v, oldest other line %v", st(sys, 0, lock), st(sys, 0, other(1)))
	}
}

// TestSpinHitThreeLevelFlush: in the three-level organization a remote
// load makes the owner flush its L1 copy to the middle cache MidHit cycles
// after the forward arrives. A spin re-read inside that window re-caches
// the still-valid entry; the flush must drop it again, so the next re-read
// misses the L1 and is served by the middle cache.
func TestSpinHitThreeLevelFlush(t *testing.T) {
	es := threeLevel(t, baseCfg())
	e, sys, lock := es.e, es.sys, es.sys.LockLine
	l1 := sys.L1s[0]
	access(t, e, sys, 0, lock, false)
	drain(e)
	spinHits(t, sys, 0, 2)
	done := tryAccess(e, sys, 1, lock, false)
	for l1.spinEntry != nil { // run until the forward reaches core 0
		if !e.Step() {
			t.Fatal("the remote load never reached core 0")
		}
	}
	if !st(sys, 0, lock).Valid() {
		t.Fatal("the flush ran with the forward; the window under test is empty")
	}
	spinHits(t, sys, 0, 1) // inside the flush window: full check, re-cached
	drain(e)
	if !*done || st(sys, 0, lock) != cache.Invalid {
		t.Fatalf("remote load done=%v, core 0 L1 lock line %v; want done and flushed", *done, st(sys, 0, lock))
	}
	if l1.SpinHit() {
		t.Fatal("SpinHit reused the entry the middle-cache flush invalidated")
	}
	misses, midHits := l1.Misses, l1.MidHits
	access(t, e, sys, 0, lock, false)
	drain(e)
	if l1.Misses != misses+1 || l1.MidHits != midHits+1 {
		t.Fatalf("re-read after the flush: misses %d→%d, mid hits %d→%d; want an L1 miss served by the middle cache",
			misses, l1.Misses, midHits, l1.MidHits)
	}
}

// TestQuietSpinSettlesExactly checks a quiet spin against the re-reads it
// skips. Each case brings core 0's L1 to a spin with its lock re-read
// cached, then runs n re-reads (SpinHit) or marks the spin quiet with n
// skipped re-reads, before an L1 entry point that touches the array: the
// core's own hit, a fill, a forward for another line, and the
// three-level promote. After the entry point and EndSpin, the hit count
// and both arrays, LRU stamps included, must be identical.
func TestQuietSpinSettlesExactly(t *testing.T) {
	const n = 5
	type step func(t *testing.T, es *engineSys, other func(int) mem.Line)
	cases := []struct {
		name       string
		threeLevel bool
		before     step // runs before the re-reads
		after      step // runs after them
	}{
		{name: "hit", after: func(t *testing.T, es *engineSys, other func(int) mem.Line) {
			access(t, es.e, es.sys, 0, other(1), false)
		}},
		{name: "fill", before: func(t *testing.T, es *engineSys, other func(int) mem.Line) {
			tryAccess(es.e, es.sys, 0, other(3), false)
		}},
		{name: "forward", after: func(t *testing.T, es *engineSys, other func(int) mem.Line) {
			access(t, es.e, es.sys, 1, other(1), true)
		}},
		{name: "promote", threeLevel: true, before: func(t *testing.T, es *engineSys, other func(int) mem.Line) {
			access(t, es.e, es.sys, 0, other(2), false)
			access(t, es.e, es.sys, 0, other(3), false)
			access(t, es.e, es.sys, 0, other(4), false) // demotes other(1)
			if me := es.sys.L1s[0].MidArray().Peek(other(1)); me == nil || !me.State.Valid() {
				t.Fatal("other(1) was not demoted to the middle cache")
			}
			tryAccess(es.e, es.sys, 0, other(1), false)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var arrs, mids [2]*cache.Array
			var hits [2]uint64
			for i, quiet := range []bool{false, true} {
				es := spinSys(t)
				if tc.threeLevel {
					es = threeLevel(t, baseCfg())
				}
				e, sys, lock := es.e, es.sys, es.sys.LockLine
				l1 := sys.L1s[0]
				q := &QuietSpin{}
				l1.BindQuiet(q)
				sets := l1.Array().Sets()
				other := func(k int) mem.Line { return lock + mem.Line(k*sets) }
				access(t, e, sys, 0, other(1), false)
				access(t, e, sys, 0, lock, false)
				drain(e)
				spinHits(t, sys, 0, 1) // caches the entry
				if tc.before != nil {
					tc.before(t, es, other)
				}
				if quiet {
					if l1.Quiesce(); !q.On {
						t.Fatal("Quiesce declined a cached lock re-read")
					}
					q.Skipped = n
				} else {
					spinHits(t, sys, 0, n)
				}
				if tc.after != nil {
					tc.after(t, es, other)
				}
				drain(e)
				l1.EndSpin()
				if q.On || q.Skipped != 0 {
					t.Fatalf("quiet=%v: slot %+v not settled", quiet, *q)
				}
				arrs[i], mids[i], hits[i] = l1.Array(), l1.MidArray(), l1.Hits
			}
			if hits[0] != hits[1] {
				t.Errorf("hits: %d evented, %d quiet", hits[0], hits[1])
			}
			if !reflect.DeepEqual(arrs[0], arrs[1]) || !reflect.DeepEqual(mids[0], mids[1]) {
				t.Error("the quiet spin left the L1 arrays (LRU stamps included) different from the evented spin")
			}
		})
	}
}
