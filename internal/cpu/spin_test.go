package cpu

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/sim"
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
// makes the same schedule calls as the closure loop it replaced, and the
// L1 hit counts that the quiet spin (Machine.OnTick) applies every
// re-read it skips.
func TestSpinWhileHeldAllocationFree(t *testing.T) {
	const hold = 20_000
	want := map[uint64]uint64{hold: 20924, 4 * hold: 80924}
	wantHits := [2]uint64{3115, 13114}
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
	if got := [2]uint64{short.Traffic.L1Hits, long.Traffic.L1Hits}; got != wantHits {
		t.Errorf("L1Hits = %v, want %v", got, wantHits)
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

// quietSpinPoint is a lock-hold point built around one spinner's L1 set
// (thread 1 on core 1). Thread 1 fills the lock line's set with X1, X2
// and A before it spins. Mid-spin, thread 2 writes A, so a message for a
// line other than the lock reaches the spinner's L1 while it spins. After
// its section thread 1 re-reads X1 and X2, then reads Y1 (into A's
// invalidated way) and Y2, whose fill evicts the set's LRU line.
func quietSpinPoint(p coherence.Params) (progs []Program, set [6]mem.Line) {
	sets := p.L1Size / mem.LineBytes / p.L1Ways
	for i := range set {
		set[i] = mem.Line(sets * (100 + i)) // same L1 set as the lock line 0
	}
	set[5] = 0 // the lock line
	x1, x2, a, y1, y2 := set[0], set[1], set[2], set[3], set[4]
	body := func(th int) Program {
		line := mem.Line(1<<20 + 64*th)
		return Program{AtomicStatic([]Op{Read(line), Compute(10), Write(line)})}
	}
	holder := Program{AtomicStatic([]Op{Fault(), Compute(20_000), Write(1 << 20)})}
	spinner := append(Program{Plain([]Op{Read(x1), Read(x2), Read(a), Compute(2000)})}, body(1)...)
	spinner = append(spinner, Plain([]Op{Read(x1), Read(x2), Read(y1), Read(y2)}))
	writer := append(Program{Plain([]Op{Compute(8000), Write(a)})}, body(2)...)
	other := append(Program{Plain([]Op{Compute(2000)})}, body(3)...)
	return []Program{holder, spinner, writer, other}, set
}

// TestQuietSpinMessageAndEviction pins the quiet-spin point's cycles, L1
// hits and LRU victim at the values of the fully evented spin.
func TestQuietSpinMessageAndEviction(t *testing.T) {
	cfg := lockHoldConfig()
	progs, set := quietSpinPoint(cfg.Machine)
	m := NewMachine(cfg, "spin", "quiet-evict", progs)
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"X1", "X2", "A", "Y1", "Y2", "lock"}
	var gone []string
	for i, l := range set {
		if e := m.Sys.L1s[1].Array().Peek(l); e == nil || !e.State.Valid() {
			gone = append(gone, names[i])
		}
	}
	// A left with thread 2's store and Y1 took its way; Y2's fill evicted
	// the lock line, older than the re-read X1 and X2.
	if r.ExecCycles != 21146 || r.Traffic.L1Hits != 2765 || !reflect.DeepEqual(gone, []string{"A", "lock"}) {
		t.Errorf("ExecCycles=%d L1Hits=%d, lines gone from thread 1's set %v; want 21146, 2765, [A lock]",
			r.ExecCycles, r.Traffic.L1Hits, gone)
	}
}

// TestQuietSpinRunEndsQuiet stops the lock-hold point at a cycle limit
// while the spinners are quiet, on the two-level and the three-level
// organization: the hits the quiet spinners skipped still reach the run's
// traffic counters.
func TestQuietSpinRunEndsQuiet(t *testing.T) {
	for _, threeLevel := range []bool{false, true} {
		cfg := lockHoldConfig()
		cfg.Limit = 12_000
		if threeLevel {
			cfg.Machine.MidSize, cfg.Machine.MidWays = 64*1024, 8
		}
		m := NewMachine(cfg, "spin", "quiet-end", lockHoldPrograms(20_000))
		r, err := m.Run()
		if !errors.Is(err, sim.ErrLimitReached) {
			t.Fatalf("threeLevel=%v: err = %v, want the cycle limit", threeLevel, err)
		}
		if want := map[bool]uint64{false: 1660, true: 1658}[threeLevel]; r.Traffic.L1Hits != want {
			t.Errorf("threeLevel=%v: L1Hits = %d, want %d", threeLevel, r.Traffic.L1Hits, want)
		}
	}
}
