package harness

import (
	"fmt"
	"math"

	"repro/internal/stamp"
)

// SeedStats summarizes a measurement repeated over several seeds. The
// simulator is deterministic per seed; seed-to-seed spread reflects
// workload randomness (address streams, backoff draws), the analogue of
// run-to-run variance on real hardware.
type SeedStats struct {
	N                     int
	Mean, Stdev, Min, Max float64
}

func (s SeedStats) String() string {
	return fmt.Sprintf("%.3f ± %.3f (min %.3f, max %.3f, n=%d)", s.Mean, s.Stdev, s.Min, s.Max, s.N)
}

func summarize(xs []float64) SeedStats {
	s := SeedStats{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	if len(xs) == 0 {
		return SeedStats{}
	}
	for _, x := range xs {
		s.Mean += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean /= float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Stdev = math.Sqrt(ss / float64(len(xs)-1))
	}
	return s
}

// SpeedupSeeds measures the system's speedup over CGL across the given
// seeds (workload and CGL baseline re-generated per seed) and returns the
// spread.
func SpeedupSeeds(sys SystemDef, wl stamp.Profile, threads int, cache CacheConfig, seeds []uint64) (SeedStats, error) {
	if len(seeds) == 0 {
		return SeedStats{}, fmt.Errorf("harness: no seeds given")
	}
	var sps []float64
	for _, seed := range seeds {
		cgl, err := ExecuteWith(Spec{System: mustSystem("CGL"), Workload: wl,
			Threads: threads, Cache: cache, Seed: seed}, ExecOptions{})
		if err != nil {
			return SeedStats{}, err
		}
		run, err := ExecuteWith(Spec{System: sys, Workload: wl,
			Threads: threads, Cache: cache, Seed: seed}, ExecOptions{})
		if err != nil {
			return SeedStats{}, err
		}
		sps = append(sps, float64(cgl.ExecCycles)/float64(run.ExecCycles))
	}
	return summarize(sps), nil
}

// CommitRateSeeds measures the commit-rate spread across seeds.
func CommitRateSeeds(sys SystemDef, wl stamp.Profile, threads int, cache CacheConfig, seeds []uint64) (SeedStats, error) {
	if len(seeds) == 0 {
		return SeedStats{}, fmt.Errorf("harness: no seeds given")
	}
	var rates []float64
	for _, seed := range seeds {
		run, err := ExecuteWith(Spec{System: sys, Workload: wl,
			Threads: threads, Cache: cache, Seed: seed}, ExecOptions{})
		if err != nil {
			return SeedStats{}, err
		}
		rates = append(rates, run.CommitRate())
	}
	return summarize(rates), nil
}

// Seeds returns n consecutive seeds starting at base, a convenience for
// callers sweeping variance.
func Seeds(base uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = base + uint64(i)
	}
	return out
}
