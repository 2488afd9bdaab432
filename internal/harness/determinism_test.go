package harness

import (
	"fmt"
	"testing"

	"repro/internal/stamp"
)

// goldenCycles pins the exact ExecCycles of a small system x workload x
// thread-count matrix (TypicalCache, seed 1). The simulator guarantees
// bit-for-bit reproducibility — every event executes in (when, seq) order
// and no Go map iteration order leaks into event sequencing — so these
// values must never move unless a change intentionally alters simulated
// timing. If a refactor (scheduler, message pooling, ...) shifts any of
// them, it changed behavior, not just performance.
var goldenCycles = map[goldenKey]uint64{
	{"CGL", "intruder", 2}:             1245702,
	{"CGL", "intruder", 4}:             1518237,
	{"CGL", "kmeans", 2}:               1180932,
	{"CGL", "kmeans", 4}:               990215,
	{"Baseline", "intruder", 2}:        1015025,
	{"Baseline", "intruder", 4}:        965800,
	{"Baseline", "kmeans", 2}:          1009909,
	{"Baseline", "kmeans", 4}:          544132,
	{"LockillerTM-RWI", "intruder", 2}: 1008516,
	{"LockillerTM-RWI", "intruder", 4}: 784785,
	{"LockillerTM-RWI", "kmeans", 2}:   1010008,
	{"LockillerTM-RWI", "kmeans", 4}:   573894,
	{"LockillerTM", "intruder", 2}:     948544,
	{"LockillerTM", "intruder", 4}:     794394,
	{"LockillerTM", "kmeans", 2}:       1007204,
	{"LockillerTM", "kmeans", 4}:       562700,
}

type goldenKey struct {
	System   string
	Workload string
	Threads  int
}

func goldenWorkloads() []stamp.Profile {
	return []stamp.Profile{stamp.Intruder(), stamp.Kmeans()}
}

// TestGoldenCycleCounts runs the golden matrix and asserts every ExecCycles
// value bit-for-bit.
func TestGoldenCycleCounts(t *testing.T) {
	for _, sysName := range []string{"CGL", "Baseline", "LockillerTM-RWI", "LockillerTM"} {
		sys := mustSystem(sysName)
		for _, wl := range goldenWorkloads() {
			for _, th := range []int{2, 4} {
				sysName, wl, th := sysName, wl, th
				t.Run(fmt.Sprintf("%s/%s/%d", sysName, wl.Name, th), func(t *testing.T) {
					t.Parallel()
					run, err := ExecuteWith(Spec{System: sys, Workload: wl, Threads: th, Cache: TypicalCache(), Seed: 1}, ExecOptions{})
					if err != nil {
						t.Fatal(err)
					}
					want := goldenCycles[goldenKey{sysName, wl.Name, th}]
					if run.ExecCycles != want {
						t.Errorf("ExecCycles = %d, want %d (simulated timing changed)", run.ExecCycles, want)
					}
				})
			}
		}
	}
}

// TestRepeatedRunsIdentical runs the same spec twice in one process and
// asserts the cycle counts agree: scheduling must not depend on process
// state (map iteration order, allocation addresses, pool contents).
func TestRepeatedRunsIdentical(t *testing.T) {
	spec := Spec{System: mustSystem("LockillerTM"), Workload: stamp.Intruder(),
		Threads: 4, Cache: TypicalCache(), Seed: 1}
	a, err := ExecuteWith(spec, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExecuteWith(spec, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.ExecCycles != b.ExecCycles {
		t.Fatalf("runs diverged: %d vs %d cycles", a.ExecCycles, b.ExecCycles)
	}
}
