package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/stamp"
)

func TestSystemsMatchTableII(t *testing.T) {
	want := []string{
		"CGL", "Baseline", "LosaTM-SAFU",
		"LockillerTM-RAI", "LockillerTM-RRI", "LockillerTM-RWI",
		"LockillerTM-RWL", "LockillerTM-RWIL", "LockillerTM",
	}
	got := Systems()
	if len(got) != len(want) {
		t.Fatalf("%d systems, want %d", len(got), len(want))
	}
	for i, n := range want {
		if got[i].Name != n {
			t.Fatalf("system %d = %s, want %s", i, got[i].Name, n)
		}
		got[i].HTM.Validate()
	}
	if _, err := SystemByName("nope"); err == nil {
		t.Fatal("unknown system must error")
	}
}

func TestCacheConfigs(t *testing.T) {
	if TypicalCache().L1Size != 32*1024 || TypicalCache().LLCSize != 8<<20 {
		t.Fatal("typical cache mismatch with Table I")
	}
	if SmallCache().L1Size != 8*1024 || LargeCache().L1Size != 128*1024 {
		t.Fatal("Fig. 13 cache configs mismatch")
	}
}

// tinyProfile is a fast workload for harness tests.
func tinyProfile() stamp.Profile {
	return stamp.Profile{
		Name: "tiny", TotalSections: 60,
		TxReads: 4, TxWrites: 2, ComputePerOp: 2,
		NonTxCompute: 30, NonTxMemOps: 1,
		HotLines: 32, WarmLines: 64, PrivateLines: 32,
		HotWriteFrac: 0.7, HotReadFrac: 0.5, WarmReadFrac: 0.2,
	}
}

func TestRunnerMemoizes(t *testing.T) {
	r := NewRunner(1)
	spec := Spec{System: mustSystem("Baseline"), Workload: tinyProfile(), Threads: 2, Cache: TypicalCache()}
	a, err := r.Get(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Get(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("memoization failed: distinct result objects")
	}
}

func TestSpeedupAgainstCGL(t *testing.T) {
	r := NewRunner(1)
	sp, err := r.Speedup(mustSystem("Baseline"), tinyProfile(), 2, TypicalCache())
	if err != nil {
		t.Fatal(err)
	}
	if sp <= 0 {
		t.Fatalf("speedup = %v", sp)
	}
	// CGL vs itself is exactly 1.
	sp, err = r.Speedup(mustSystem("CGL"), tinyProfile(), 2, TypicalCache())
	if err != nil {
		t.Fatal(err)
	}
	if sp != 1 {
		t.Fatalf("CGL self-speedup = %v, want 1", sp)
	}
}

func TestRunAllParallel(t *testing.T) {
	r := NewRunner(2)
	var specs []Spec
	for _, sys := range []string{"CGL", "Baseline", "LockillerTM"} {
		for _, th := range []int{2, 4} {
			specs = append(specs, Spec{System: mustSystem(sys), Workload: tinyProfile(), Threads: th, Cache: TypicalCache()})
		}
	}
	if err := r.RunAll(specs); err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		res, err := r.Get(s)
		if err != nil || res.Sections() == 0 {
			t.Fatalf("missing result for %s", s.key())
		}
	}
}

// TestBadThreadCountIsAnError checks that a thread count the machine
// cannot run (none, or more threads than cores) is an error naming the
// spec key, from ExecuteWith and from a sweep, which still runs the rest.
func TestBadThreadCountIsAnError(t *testing.T) {
	for _, th := range []int{0, 64} {
		s := Spec{System: mustSystem("Baseline"), Workload: tinyProfile(), Threads: th, Cache: TypicalCache()}
		if _, err := ExecuteWith(s, ExecOptions{}); err == nil || !strings.Contains(err.Error(), s.Key()) {
			t.Fatalf("ExecuteWith with %d threads on 32 cores: err = %v, want one naming %s", th, err, s.Key())
		}
	}
	r := NewRunner(1)
	good := Spec{System: mustSystem("Baseline"), Workload: tinyProfile(), Threads: 2, Cache: TypicalCache()}
	bad := Spec{System: mustSystem("CGL"), Workload: tinyProfile(), Threads: 64, Cache: TypicalCache()}
	err := r.RunAll([]Spec{bad, good})
	if err == nil || !strings.Contains(err.Error(), r.stamp(bad).Key()) {
		t.Fatalf("RunAll error = %v, want one naming %s", err, r.stamp(bad).Key())
	}
	if res, err := r.Get(good); err != nil || res.Sections() == 0 {
		t.Fatalf("the good spec did not complete beside the bad one: %v", err)
	}
}

func TestFigureRenderers(t *testing.T) {
	r := NewRunner(3)
	wls := []stamp.Profile{tinyProfile()}
	threads := []int{2}

	f1 := &Fig1{Workloads: []string{"a"}, Speedup: []float64{1.5}}
	var buf bytes.Buffer
	f1.Render(&buf)
	if !strings.Contains(buf.String(), "1.50x") {
		t.Fatalf("Fig1 render: %s", buf.String())
	}

	f8, err := RunFig8(r, wls, threads)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	f8.Render(&buf)
	if !strings.Contains(buf.String(), "Baseline") {
		t.Fatalf("Fig8 render: %s", buf.String())
	}

	f10, err := RunFig10(r, wls)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	f10.Render(&buf)
	if !strings.Contains(buf.String(), "mc") {
		t.Fatalf("Fig10 render: %s", buf.String())
	}

	bf, err := RunBreakdown(r, "Fig. 11", []string{"Baseline", "LockillerTM"}, wls, 2)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	bf.Render(&buf)
	if !strings.Contains(buf.String(), "switchLock") {
		t.Fatalf("Breakdown render: %s", buf.String())
	}
}

func TestFig7QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-system sweep")
	}
	r := NewRunner(4)
	wls := []stamp.Profile{tinyProfile()}
	f, err := RunFig7(r, nil, wls, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Systems) != 7 { // Table II minus CGL and LosaTM
		t.Fatalf("Fig7 systems = %v", f.Systems)
	}
	for _, s := range f.Systems {
		for _, wl := range f.Workloads {
			if len(f.Speedup[s][wl]) != 2 {
				t.Fatalf("missing points for %s/%s", s, wl)
			}
		}
	}
	wl, min := f.MinSpeedup("LockillerTM", 0)
	if wl == "" || min <= 0 {
		t.Fatalf("MinSpeedup broken: %s %v", wl, min)
	}
}

func TestTablesRender(t *testing.T) {
	var buf bytes.Buffer
	RenderTable1(&buf)
	if !strings.Contains(buf.String(), "4x8") {
		t.Fatal("Table I missing mesh")
	}
	buf.Reset()
	RenderTable2(&buf)
	if !strings.Contains(buf.String(), "LockillerTM-RWIL") {
		t.Fatal("Table II missing systems")
	}
}

func TestMeans(t *testing.T) {
	if mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean")
	}
	if g := geomean([]float64{1, 4}); g < 1.99 || g > 2.01 {
		t.Fatalf("geomean = %v", g)
	}
	if mean(nil) != 0 || geomean(nil) != 0 {
		t.Fatal("empty means")
	}
}
