package harness

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/stamp"
	"repro/internal/stats"
)

// goldenSpecs returns the 16-point golden matrix as runner specs.
func goldenSpecs() []Spec {
	var specs []Spec
	for _, sysName := range []string{"CGL", "Baseline", "LockillerTM-RWI", "LockillerTM"} {
		for _, wl := range goldenWorkloads() {
			for _, th := range []int{2, 4} {
				specs = append(specs, Spec{
					System: mustSystem(sysName), Workload: wl,
					Threads: th, Cache: TypicalCache(), Seed: 1,
				})
			}
		}
	}
	return specs
}

// checkGolden asserts every matrix cell the runner holds matches the pinned
// ExecCycles values.
func checkGolden(t *testing.T, r *Runner) {
	t.Helper()
	for _, s := range goldenSpecs() {
		run, err := r.Get(s)
		if err != nil {
			t.Fatal(err)
		}
		want := goldenCycles[goldenKey{s.System.Name, s.Workload.Name, s.Threads}]
		if run.ExecCycles != want {
			t.Errorf("%s: ExecCycles = %d, want %d (a recycled cache arena changed simulated timing)",
				s.Key(), run.ExecCycles, want)
		}
	}
}

// setReuse turns arena recycling on or off for one runner. On is the normal
// path: every machine releases its cache arena, so the next build of the
// same shape recycles a backing this runner dirtied. Off runs machines and
// drops them unreleased, so the runner never feeds the free list.
func setReuse(r *Runner, reuse bool) {
	if !reuse {
		r.exec = func(s Spec) (*stats.Run, error) {
			return newMachine(s, ExecOptions{}, r.progs.get(s)).Run()
		}
	}
}

// TestGoldenCycleCountsReuse pins arena recycling on the golden 16-point
// matrix: with reuse, every machine the runner builds takes its cache arena
// from the free list, which at Workers=1 means the backing a previous spec
// of the same shape dirtied and released. Recycled arenas must reproduce
// exactly the cycle counts TestGoldenCycleCounts pins for fresh builds, and
// so must the same sweep with recycling off.
func TestGoldenCycleCountsReuse(t *testing.T) {
	for _, reuse := range []bool{true, false} {
		t.Run(fmt.Sprintf("reuse=%v", reuse), func(t *testing.T) {
			r := NewRunner(1)
			r.Workers = 1
			setReuse(r, reuse)
			if err := r.RunAll(goldenSpecs()); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, r)
		})
	}
}

// TestReuseDifferentialRandom is the randomized half of the recycling
// contract, also run under -race by the nightly reuse-determinism job. Each
// round runs two workloads of one shape back to back on one worker, so the
// second machine is built on the arena backing the first one dirtied and
// released. Its full stats must deep-equal a separate build of the same
// spec, whose backing has a different history (the cache package pins that
// a cleared backing equals a fresh allocation).
func TestReuseDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	systems := Systems()
	workloads := stamp.Workloads()
	caches := []CacheConfig{TypicalCache(), SmallCache()}
	for round := 0; round < 4; round++ {
		shape := Spec{
			System:  systems[rng.Intn(len(systems))],
			Threads: []int{2, 4}[rng.Intn(2)],
			Cache:   caches[rng.Intn(len(caches))],
		}
		wlA := workloads[rng.Intn(len(workloads))]
		wlB := workloads[rng.Intn(len(workloads))]
		seed := uint64(rng.Intn(1000) + 1)
		t.Run(fmt.Sprintf("%s|%d|%s|%s->%s", shape.System.Name, shape.Threads,
			shape.Cache.Name, wlA.Name, wlB.Name), func(t *testing.T) {
			r := NewRunner(seed)
			r.Workers = 1
			specA, specB := shape, shape
			specA.Workload, specB.Workload = wlA, wlB
			if _, err := r.Get(specA); err != nil {
				t.Fatal(err)
			}
			reused, err := r.Get(specB) // built on specA's released arena
			if err != nil {
				t.Fatal(err)
			}
			specB.Seed = seed
			separate, err := ExecuteWith(specB, ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(separate, reused) {
				t.Errorf("recycled-arena run diverged from a separate build for %s:\nseparate: %+v\nreused  : %+v",
					specB.Key(), separate, reused)
			}
		})
	}
}
