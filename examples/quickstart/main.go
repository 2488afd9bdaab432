// Quickstart: build a tiny transactional workload as cpu.Programs and
// compare coarse-grained locking, requester-win best-effort HTM, and the
// full LockillerTM system on it, through the same harness.Spec every
// figure runs.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/mem"
	"repro/internal/stamp"
)

func main() {
	const threads = 32

	// The classic transactional-memory demo: money transfers between
	// shared accounts. Each transaction atomically updates two accounts —
	// the two-line write pattern that makes requester-win HTM prone to
	// friendly fire. The updates are verified functional counters
	// (cpu.RMW), so the run also checks end-to-end atomicity: a lost
	// update anywhere in the protocol would break the final tally.
	const perThread = 100
	layout := mem.NewLayout()
	accounts := layout.Alloc(24)

	programs := make([]cpu.Program, threads)
	for th := 0; th < threads; th++ {
		var prog cpu.Program
		for i := 0; i < perThread; i++ {
			from := accounts.Pick(th*17 + i*13)
			to := accounts.Pick(th*29 + i*7 + 1)
			prog = append(prog,
				cpu.AtomicStatic([]cpu.Op{
					cpu.RMW(from),
					cpu.Compute(30),
					cpu.RMW(to),
				}),
				cpu.Plain([]cpu.Op{cpu.Compute(40)}),
			)
		}
		programs[th] = prog
	}

	var cglCycles uint64
	for _, name := range []string{"CGL", "Baseline", "LockillerTM"} {
		sys, err := harness.SystemByName(name)
		if err != nil {
			panic(err)
		}
		spec := harness.Spec{System: sys, Workload: stamp.Profile{Name: "custom"},
			Threads: threads, Cache: harness.TypicalCache(), Seed: 1}
		// NewMachineFor rather than ExecuteWith: the machine must outlive
		// the run so its functional counters can be read.
		m := harness.NewMachineFor(spec, harness.ExecOptions{Programs: programs})
		res, err := m.Run()
		if err != nil {
			panic(err)
		}
		if name == "CGL" {
			cglCycles = res.ExecCycles
		}
		var tally uint64
		for i := 0; i < accounts.N; i++ {
			tally += m.CounterValue(accounts.Pick(i))
		}
		m.Release()
		fmt.Printf("%-12s  cycles=%-9d commit-rate=%.3f  speedup-vs-CGL=%.2fx  atomic=%v\n",
			name, res.ExecCycles, res.CommitRate(),
			float64(cglCycles)/float64(res.ExecCycles),
			tally == uint64(2*threads*perThread))
	}
}
