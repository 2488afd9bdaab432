package harness

import (
	"sync"

	"repro/internal/cpu"
	"repro/internal/stamp"
)

// programMemo keeps the generated programs of every (profile, threads,
// seed) point a runner has executed, so the systems compared at one sweep
// point share a single stamp.Programs call instead of regenerating the
// same workload for each. Sharing is safe because nothing mutates a
// cpu.Program once built: cores only read sections and ops, and a
// regenerating section draws each attempt into its core's own buffer
// (TestProgramMemoShared pins this under -race). The memo lives as long
// as its Runner; there is deliberately no process-wide cache.
type programMemo struct {
	mu sync.Mutex
	m  map[programKey][]cpu.Program
}

// programKey is stamp.Programs' full input: the same key always yields
// identical programs.
type programKey struct {
	profile stamp.Profile
	threads int
	seed    uint64
}

// get returns the spec's programs, generating them on first use. The lock
// is held across generation (milliseconds, against runs of tens to
// hundreds), so workers asking for the same point wait for one call.
func (pm *programMemo) get(s Spec) []cpu.Program {
	k := programKey{s.Workload, s.Threads, s.Seed}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	progs, ok := pm.m[k]
	if !ok {
		progs = stamp.Programs(s.Workload, s.Threads, s.Seed)
		if pm.m == nil {
			pm.m = make(map[programKey][]cpu.Program)
		}
		pm.m[k] = progs
	}
	return progs
}
