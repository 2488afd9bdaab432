package cache

import (
	"testing"

	"repro/internal/mem"
)

// resetArenaFree empties the package free list so each test starts from a
// known state.
func resetArenaFree(t *testing.T) {
	t.Helper()
	arenaFree.Lock()
	arenaFree.list = nil
	arenaFree.Unlock()
}

// TestArenaRecycledIsZero dirties every field of an arena's entries, releases
// it, and requires the next arena of that length to hand back the same
// backing all-zero — indistinguishable from a fresh make.
func TestArenaRecycledIsZero(t *testing.T) {
	resetArenaFree(t)
	ar := NewArena(256)
	a := NewArrayIn(ar, 128*mem.LineBytes, 4)
	b := NewArrayIn(ar, 128*mem.LineBytes, 8)
	for i, arr := range []*Array{a, b} {
		for l := 0; l < arr.Lines(); l++ {
			e := arr.Victim(mem.Line(l+i*1000), nil)
			arr.Install(e, mem.Line(l+i*1000), Modified)
			e.Dirty, e.TxRead, e.TxWrite = true, true, true
		}
	}
	first := &ar.full[0]
	ar.Release()
	ar.Release() // a second release is a no-op

	again := NewArena(256)
	if &again.full[0] != first {
		t.Fatal("NewArena did not recycle the released backing")
	}
	for i, e := range again.full {
		if e != (Entry{}) {
			t.Fatalf("recycled entry %d = %+v, want the zero Entry", i, e)
		}
	}
	live := 0
	NewArrayIn(again, 256*mem.LineBytes, 4).ForEach(func(*Entry) { live++ })
	if live != 0 {
		t.Fatalf("array on a recycled arena holds %d live lines, want 0", live)
	}
}

// TestArenaExactLength pins that a backing is only handed to an arena of
// exactly its length.
func TestArenaExactLength(t *testing.T) {
	resetArenaFree(t)
	ar := NewArena(64)
	first := &ar.full[0]
	ar.Release()
	for _, n := range []int{32, 65, 128} {
		other := NewArena(n)
		if len(other.full) != n {
			t.Fatalf("NewArena(%d) has %d entries", n, len(other.full))
		}
		if &other.full[0] == first {
			t.Fatalf("NewArena(%d) took the released 64-entry backing", n)
		}
	}
	if same := NewArena(64); &same.full[0] != first {
		t.Fatal("the 64-entry backing was lost to arenas of other lengths")
	}
}

// TestArenaFreeListCap releases more arenas than the list keeps: it must
// never exceed arenaFreeCap, must hold the newest first, and must drop the
// oldest.
func TestArenaFreeListCap(t *testing.T) {
	resetArenaFree(t)
	var firsts []*Entry
	for i := 0; i < arenaFreeCap+3; i++ {
		ar := NewArena(16 + i)
		firsts = append(firsts, &ar.full[0])
		ar.Release()
		arenaFree.Lock()
		n := len(arenaFree.list)
		arenaFree.Unlock()
		if n > arenaFreeCap {
			t.Fatalf("after %d releases the free list holds %d backings, cap %d", i+1, n, arenaFreeCap)
		}
	}
	arenaFree.Lock()
	defer arenaFree.Unlock()
	if len(arenaFree.list) != arenaFreeCap {
		t.Fatalf("free list holds %d backings, want the cap %d", len(arenaFree.list), arenaFreeCap)
	}
	for i, b := range arenaFree.list {
		if want := firsts[len(firsts)-1-i]; &b[0] != want {
			t.Fatalf("free list slot %d is not the %d-th newest release", i, i+1)
		}
	}
}
