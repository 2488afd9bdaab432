package harness

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/stamp"
)

// TestGoldenCycleCountsFusionOff runs the golden matrix with the event-
// fusion fast path disabled and asserts complete behavioral equivalence:
// the pinned ExecCycles values must hold with fusion off too, and the
// deeper per-run statistics (commits, aborts by cause, traffic) must match
// a fusion-on run exactly. Fusion is a pure execution-strategy change — if
// any of these diverge, the fast path altered simulated behavior.
func TestGoldenCycleCountsFusionOff(t *testing.T) {
	for _, sysName := range []string{"CGL", "Baseline", "LockillerTM-RWI", "LockillerTM"} {
		sys := mustSystem(sysName)
		for _, wl := range goldenWorkloads() {
			for _, th := range []int{2, 4} {
				sysName, wl, th := sysName, wl, th
				t.Run(fmt.Sprintf("%s/%s/%d", sysName, wl.Name, th), func(t *testing.T) {
					t.Parallel()
					spec := Spec{System: sys, Workload: wl, Threads: th, Cache: TypicalCache(), Seed: 1}
					on, err := ExecuteWith(spec, ExecOptions{})
					if err != nil {
						t.Fatal(err)
					}
					spec.DisableFusion = true
					off, err := ExecuteWith(spec, ExecOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if want := goldenCycles[goldenKey{sysName, wl.Name, th}]; off.ExecCycles != want {
						t.Errorf("fusion-off ExecCycles = %d, want pinned %d", off.ExecCycles, want)
					}
					if on.ExecCycles != off.ExecCycles {
						t.Errorf("ExecCycles diverge: fused %d vs unfused %d", on.ExecCycles, off.ExecCycles)
					}
					if on.Traffic != off.Traffic {
						t.Errorf("traffic diverges:\n fused   %+v\n unfused %+v", on.Traffic, off.Traffic)
					}
					onTotal, onCauses := on.TotalAborts()
					offTotal, offCauses := off.TotalAborts()
					if onTotal != offTotal || !reflect.DeepEqual(onCauses, offCauses) {
						t.Errorf("aborts diverge: fused %d %v vs unfused %d %v",
							onTotal, onCauses, offTotal, offCauses)
					}
					for i := range on.Cores {
						a, b := on.Cores[i], off.Cores[i]
						if a.Commits != b.Commits || a.Attempts != b.Attempts {
							t.Errorf("core %d diverges: fused commits=%d attempts=%d, unfused commits=%d attempts=%d",
								i, a.Commits, a.Attempts, b.Commits, b.Attempts)
						}
					}
				})
			}
		}
	}
}

// TestFusionSpecKeyed asserts the runner memo treats fused and unfused
// variants of the same simulation as distinct results.
func TestFusionSpecKeyed(t *testing.T) {
	s := Spec{System: mustSystem("Baseline"), Workload: stamp.Kmeans(),
		Threads: 2, Cache: TypicalCache(), Seed: 1}
	fused := s.key()
	s.DisableFusion = true
	if unfused := s.key(); fused == unfused {
		t.Fatalf("spec key ignores DisableFusion: %q", fused)
	}
}
