package cpu

import (
	"fmt"
	"testing"

	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/priority"
)

// The atomicity battery: every synchronization system must make N threads'
// atomic counter increments sum exactly. A lost update — two transactions
// reading the same value and both committing — would make the final count
// come up short, exposing any isolation hole in the protocol (missed
// conflict detection, a reject that let a stale read survive, a speculative
// write leaking before commit).

func atomicityPrograms(threads, incs int, counters []mem.Line) []Program {
	progs := make([]Program, threads)
	for th := 0; th < threads; th++ {
		var p Program
		for i := 0; i < incs; i++ {
			c := counters[(th+i)%len(counters)]
			p = append(p,
				AtomicStatic([]Op{Compute(3), RMW(c), Compute(2)}),
				Plain([]Op{Compute(10)}),
			)
		}
		progs[th] = p
	}
	return progs
}

func allSystems() map[string]struct {
	sync SyncSystem
	hc   htm.Config
} {
	ins := priority.InstsBased{}
	return map[string]struct {
		sync SyncSystem
		hc   htm.Config
	}{
		"CGL":      {SysCGL, htm.Config{}.Defaults()},
		"Baseline": {SysHTM, htm.Config{}.Defaults()},
		"RAI":      {SysHTM, htm.Config{Recovery: true, RejectPolicy: htm.SelfAbort, Priority: ins}.Defaults()},
		"RRI":      {SysHTM, htm.Config{Recovery: true, RejectPolicy: htm.RetryLater, Priority: ins}.Defaults()},
		"RWI":      {SysHTM, htm.Config{Recovery: true, RejectPolicy: htm.WaitWakeup, Priority: ins}.Defaults()},
		"RWIL":     {SysHTM, htm.Config{Recovery: true, RejectPolicy: htm.WaitWakeup, Priority: ins, HTMLock: true}.Defaults()},
		"Full":     {SysHTM, htm.Config{Recovery: true, RejectPolicy: htm.WaitWakeup, Priority: ins, HTMLock: true, SwitchingMode: true}.Defaults()},
		"Losa":     {SysHTM, htm.Config{Losa: true, RejectPolicy: htm.WaitWakeup, Priority: priority.Progression{}}.Defaults()},
	}
}

func TestAtomicityAllSystems(t *testing.T) {
	const threads, incs = 4, 60
	counters := []mem.Line{1 << 21, 1<<21 + 1} // two hot counters
	for name, sc := range allSystems() {
		name, sc := name, sc
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				cfg := Config{Machine: smallParams(), HTM: sc.hc, Sync: sc.sync, Threads: threads, Seed: seed}
				m := NewMachine(cfg, name, "atomicity", atomicityPrograms(threads, incs, counters))
				if _, err := m.Run(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				var total uint64
				for _, c := range counters {
					total += m.CounterValue(c)
				}
				if want := uint64(threads * incs); total != want {
					t.Fatalf("seed %d: counters sum to %d, want %d — LOST UPDATE (atomicity violated)",
						seed, total, want)
				}
			}
		})
	}
}

// TestAtomicityUnderOverflowAndFaults stresses the fallback/switching
// paths: large write sets (overflow) and faults force lock-mode and STL
// completions, which must apply staged updates exactly once.
func TestAtomicityUnderOverflowAndFaults(t *testing.T) {
	const threads = 4
	counter := mem.Line(1 << 21)
	sets := 32 * 1024 / 64 / 4
	progs := make([]Program, threads)
	for th := 0; th < threads; th++ {
		var p Program
		for i := 0; i < 12; i++ {
			ops := []Op{RMW(counter)}
			if i%3 == 0 {
				// Overflow the L1 set mid-transaction.
				for j := 0; j < 5; j++ {
					ops = append(ops, Write(mem.Line(1<<22+th*4096+j*sets)))
				}
			}
			if i%4 == 1 {
				ops = append(ops, Fault())
			}
			p = append(p, AtomicStatic(ops), Plain([]Op{Compute(20)}))
		}
		progs[th] = p
	}
	for _, name := range []string{"Baseline", "Full"} {
		sc := allSystems()[name]
		t.Run(name, func(t *testing.T) {
			cfg := Config{Machine: smallParams(), HTM: sc.hc, Sync: sc.sync, Threads: threads, Seed: 5}
			m := NewMachine(cfg, name, "stress", progs)
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if got, want := m.CounterValue(counter), uint64(threads*12); got != want {
				t.Fatalf("counter = %d, want %d", got, want)
			}
		})
	}
}

// TestAtomicityLockTxVisibility is the regression test for a lost-update
// window this battery's quickstart variant caught: a TL lock transaction's
// staged updates must become visible no later than hlend wakes the
// requesters it rejected — a woken reader in the gap between hlend and the
// lock-release access otherwise reads pre-transaction values. Tiny retry
// budgets force constant fallbacks; 8 threads on 2 hot counters maximize
// wake-then-read pressure.
func TestAtomicityLockTxVisibility(t *testing.T) {
	hc := htm.Config{
		Recovery: true, RejectPolicy: htm.WaitWakeup,
		Priority: priority.InstsBased{}, HTMLock: true, SwitchingMode: true,
		MaxRetries: 1, // nearly everything falls back to TL
	}.Defaults()
	p := smallParams()
	p.Cores, p.MeshW, p.MeshH = 16, 4, 4
	counters := []mem.Line{1 << 21, 1<<21 + 1}
	for seed := uint64(1); seed <= 4; seed++ {
		cfg := Config{Machine: p, HTM: hc, Sync: SysHTM, Threads: 8, Seed: seed}
		m := NewMachine(cfg, "tl-vis", "atomicity", atomicityPrograms(8, 40, counters))
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		var total uint64
		for _, c := range counters {
			total += m.CounterValue(c)
		}
		if want := uint64(8 * 40); total != want {
			t.Fatalf("seed %d: counters sum to %d, want %d — lock-tx visibility window reopened",
				seed, total, want)
		}
		var lockRuns uint64
		for _, c := range m.Stats.Cores {
			lockRuns += c.LockRuns + c.SwitchRuns
		}
		if lockRuns == 0 {
			t.Fatal("test exercised no lock transactions; tighten the retry budget")
		}
	}
}

// TestRMWSerializesObservably: a single thread incrementing one counter
// yields exact counts too (read-your-own-write within a transaction).
func TestRMWReadYourOwnWrite(t *testing.T) {
	prog := Program{AtomicStatic([]Op{RMW(1 << 21), RMW(1 << 21), RMW(1 << 21)})}
	cfg := Config{Machine: smallParams(), HTM: baselineHTM(), Sync: SysHTM, Threads: 1, Seed: 1}
	m := NewMachine(cfg, "t", "ryow", []Program{prog})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.CounterValue(1 << 21); got != 3 {
		t.Fatalf("counter = %d, want 3 (read-your-own-write broken)", got)
	}
}

func TestRMWTraceRoundTrip(t *testing.T) {
	// RMW ops survive export/replay.
	progs := atomicityPrograms(2, 5, []mem.Line{1 << 21})
	var buf bufT
	if err := ExportPrograms(&buf, progs, 2); err != nil {
		t.Fatal(err)
	}
	got, err := ImportPrograms(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ops := got[0][0].Body(nil, 1)
	found := false
	for _, op := range ops {
		if op.Kind == OpRMW {
			found = true
		}
	}
	if !found {
		t.Fatal("RMW lost in serialization")
	}
}

// bufT is a minimal in-memory read/writer for the round-trip test.
type bufT struct{ b []byte }

func (t *bufT) Write(p []byte) (int, error) { t.b = append(t.b, p...); return len(p), nil }
func (t *bufT) Read(p []byte) (int, error) {
	if len(t.b) == 0 {
		return 0, errEOF
	}
	n := copy(p, t.b)
	t.b = t.b[n:]
	return n, nil
}

var errEOF = fmt.Errorf("EOF")
