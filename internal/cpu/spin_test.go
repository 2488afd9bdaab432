package cpu

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/mem"
	"repro/internal/stats"
)

// lockHoldPrograms builds a classic-interface contention point: thread 0's
// one section faults on its only speculative attempt (MaxRetries = 1), so
// it takes the fallback lock and holds it for about hold cycles; threads
// 1..3 finish a short non-transactional prefix while the lock is held and
// then spin on it (Listing 1's retry strategy) until it is released.
func lockHoldPrograms(hold uint64) []Program {
	holder := Program{AtomicStatic([]Op{Fault(), Compute(hold), Write(1 << 20)})}
	progs := []Program{holder}
	for th := 1; th < 4; th++ {
		line := mem.Line(1<<20 + 64*th)
		progs = append(progs, Program{
			Plain([]Op{Compute(2000)}),
			AtomicStatic([]Op{Read(line), Compute(10), Write(line)}),
		})
	}
	return progs
}

func lockHoldConfig() Config {
	hc := baselineHTM()
	hc.MaxRetries = 1
	return Config{Machine: smallParams(), HTM: hc, Sync: SysHTM, Threads: 4, Seed: 3}
}

// runLockHold runs the contention point and returns its stats and the
// host mallocs of the run alone (construction excluded).
func runLockHold(t *testing.T, hold uint64) (*stats.Run, uint64) {
	t.Helper()
	m := NewMachine(lockHoldConfig(), "spin", "lock-hold", lockHoldPrograms(hold))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r, err := m.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("hold=%d: %v", hold, err)
	}
	return r, after.Mallocs - before.Mallocs
}

// TestSpinWhileHeldAllocationFree pins the Listing-1 spin loop: spinners
// re-read the held fallback lock every SpinInterval cycles, and quadrupling
// the hold time must add spin iterations (simulated cycles) without adding
// host allocations. The cycle counts pin that the allocation-free loop
// makes the same schedule calls as the closure loop it replaced.
func TestSpinWhileHeldAllocationFree(t *testing.T) {
	const hold = 20_000
	want := map[uint64]uint64{hold: 20924, 4 * hold: 80924}
	short, shortAllocs := runLockHold(t, hold)
	long, longAllocs := runLockHold(t, 4*hold)
	for _, r := range []*stats.Run{short, long} {
		var waits uint64
		for _, c := range r.Cores[1:] {
			waits += c.Cycles[stats.CatWaitLock]
		}
		if waits == 0 {
			t.Fatalf("no spinner waited on the fallback lock; the point exercises no spinning")
		}
	}
	if got := [2]uint64{short.ExecCycles, long.ExecCycles}; got != [2]uint64{want[hold], want[4*hold]} {
		t.Errorf("ExecCycles = %v, want %v (spin schedule changed)", got, [2]uint64{want[hold], want[4*hold]})
	}
	// 3 spinners x ~3400 extra iterations: the closure loop allocated one
	// continuation per iteration, ~10k mallocs. Allow a little noise.
	t.Logf("run mallocs: %d at hold=%d, %d at hold=%d", shortAllocs, hold, longAllocs, 4*hold)
	if longAllocs > shortAllocs+64 {
		t.Errorf("mallocs grew with hold time: %d at hold=%d, %d at hold=%d", shortAllocs, hold, longAllocs, 4*hold)
	}
}

// poisonedGen returns a regenerating section body for the stale-buffer
// test. Attempts alternate between long and short bodies over
// attempt-specific lines with long compute gaps, so aborts land while a
// continuation of the previous body is still queued. With reuse, the body
// is drawn into the core's buffer after poisoning its whole capacity: a
// stale continuation that read the buffer past the new body would hit an
// unknown op kind (runOps panics), and one that read inside it would run
// the new attempt's ops at the old attempt's time and change the stats.
// Without reuse it returns a fresh slice, the reference behaviour.
func poisonedGen(th int, reuse bool) func(dst []Op, attempt int) []Op {
	return func(dst []Op, attempt int) []Op {
		if !reuse {
			dst = nil
		}
		full := dst[:cap(dst)]
		for i := range full {
			full[i] = Op{Kind: OpKind(0xFF)}
		}
		dst = dst[:0]
		n := 2 + 3*(attempt%2)
		for i := 0; i < n; i++ {
			line := mem.Line(1<<21 + 64*(attempt%4) + i)
			dst = append(dst, Read(line), Compute(uint64(150+40*i)), RMW(1<<22))
		}
		return append(dst, Compute(uint64(300+th)), Write(mem.Line(1<<23+th)))
	}
}

// TestRegeneratedBodyBufferStaleContinuations checks the core-owned body
// buffer against fresh per-attempt slices on a contended point under both
// the classic interface and LockillerTM: every stale continuation must be
// dropped by its token before it reads ops, so the runs are identical.
func TestRegeneratedBodyBufferStaleContinuations(t *testing.T) {
	for _, name := range []string{"Baseline", "LockillerTM"} {
		hc := baselineHTM()
		if name == "LockillerTM" {
			hc = lockillerCfg()
		}
		t.Run(name, func(t *testing.T) {
			var runs [2]*stats.Run
			var counts [2]uint64
			for i, reuse := range []bool{false, true} {
				var progs []Program
				for th := 0; th < 4; th++ {
					var p Program
					for s := 0; s < 6; s++ {
						p = append(p, AtomicDynamic(poisonedGen(th, reuse)), Plain([]Op{Compute(uint64(20 + 7*th))}))
					}
					progs = append(progs, p)
				}
				cfg := Config{Machine: smallParams(), HTM: hc, Sync: SysHTM, Threads: 4, Seed: 11}
				m := NewMachine(cfg, name, fmt.Sprintf("reuse=%v", reuse), progs)
				r, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				r.Workload = ""
				runs[i], counts[i] = r, m.CounterValue(1<<22)
			}
			if aborts, _ := runs[0].TotalAborts(); aborts == 0 {
				t.Fatal("no aborts: the point never discards an attempt")
			}
			if counts[1] != counts[0] {
				t.Errorf("counter %d with the buffer, %d with fresh slices", counts[1], counts[0])
			}
			if !reflect.DeepEqual(runs[0], runs[1]) {
				t.Errorf("body buffer changed the run: %d vs %d cycles", runs[1].ExecCycles, runs[0].ExecCycles)
			}
		})
	}
}
