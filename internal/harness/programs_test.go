package harness

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/stamp"
	"repro/internal/stats"
)

// sameProgram reports whether two programs are indistinguishable to a
// core: equal section kinds and static ops, and — for regenerating
// sections, whose Gen closures reflect cannot compare — equal bodies over
// the first attempts.
func sameProgram(a, b cpu.Program) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		sa, sb := a[i], b[i]
		if sa.Atomic != sb.Atomic || sa.Barrier != sb.Barrier || (sa.Gen == nil) != (sb.Gen == nil) ||
			!reflect.DeepEqual(sa.Ops, sb.Ops) {
			return false
		}
		for attempt := 1; sa.Gen != nil && attempt <= 4; attempt++ {
			if !reflect.DeepEqual(sa.Body(nil, attempt), sb.Body(nil, attempt)) {
				return false
			}
		}
	}
	return true
}

// TestProgramMemoShared runs CGL and every Fig. 7 system from one memoized
// program set on two workers, so machines execute the same programs
// concurrently (the -race suite checks that they only read them), with
// arena recycling on — racing the shared cache-arena free list — and off.
// Yada
// regenerates its bodies per attempt and faults, which exercises the
// per-core body buffer on shared sections. Afterwards the shared programs
// must still equal a fresh generation, and every result must equal a run
// on freshly generated programs.
func TestProgramMemoShared(t *testing.T) {
	wl, threads := stamp.Yada(), 2
	var specs []Spec
	for _, sys := range append([]SystemDef{mustSystem("CGL")}, Fig7Systems()...) {
		specs = append(specs, Spec{System: sys, Workload: wl, Threads: threads, Cache: TypicalCache(), Seed: 1})
	}
	if len(specs) != 8 {
		t.Fatalf("%d systems, want CGL plus the 7 Fig. 7 systems", len(specs))
	}
	want := make([]*stats.Run, len(specs))
	for i, s := range specs {
		var err error
		if want[i], err = ExecuteWith(s, ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	fresh := stamp.Programs(wl, threads, 1)
	for _, reuse := range []bool{true, false} {
		t.Run(fmt.Sprintf("reuse=%v", reuse), func(t *testing.T) {
			r := NewRunner(1)
			r.Workers = 2
			setReuse(r, reuse)
			shared := r.progs.get(specs[0])
			if err := r.RunAll(specs); err != nil {
				t.Fatal(err)
			}
			if got := len(r.progs.m); got != 1 {
				t.Fatalf("runner memoized %d program sets for one sweep point, want 1", got)
			}
			for th := range fresh {
				if !sameProgram(shared[th], fresh[th]) {
					t.Fatalf("thread %d: the shared program changed during the runs", th)
				}
			}
			for i, s := range specs {
				got, err := r.Get(s)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%s: shared-program result differs from a fresh generation (%d vs %d cycles)",
						s.Key(), got.ExecCycles, want[i].ExecCycles)
				}
			}
		})
	}
}
