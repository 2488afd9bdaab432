package harness

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/stamp"
	"repro/internal/stats"
)

// TestGridFor pins the derived grids of the scaling sweep (DESIGN.md §13).
func TestGridFor(t *testing.T) {
	cases := []struct{ n, w, h int }{
		{8, 2, 4}, {32, 4, 8}, {64, 8, 8}, {128, 8, 16},
		{256, 16, 16}, {512, 16, 32}, {1024, 32, 32},
	}
	for _, c := range cases {
		if w, h := GridFor(c.n); w != c.w || h != c.h {
			t.Errorf("GridFor(%d) = %dx%d, want %dx%d", c.n, w, h, c.w, c.h)
		}
	}
}

// TestSpecKeyScalingSuffixOnly guards memo-key compatibility: a spec with
// no scaling or three-level overrides must produce exactly the pre-scaling
// key (persisted result files stay valid), and overrides may only append
// to it.
func TestSpecKeyScalingSuffixOnly(t *testing.T) {
	s := Spec{System: mustSystem("Baseline"), Workload: stamp.Intruder(),
		Threads: 8, Cache: TypicalCache(), Seed: 1}
	base := s.key()
	if want := "Baseline|intruder|8|typical|1"; base != want {
		t.Fatalf("default-shape key = %q, want %q", base, want)
	}
	s.Cores, s.Topo, s.ClusterSize = 256, "torus", 16
	scaled := s.key()
	if !strings.HasPrefix(scaled, base) {
		t.Fatalf("scaling overrides must extend the key as a suffix: %q vs %q", scaled, base)
	}
	if scaled == base {
		t.Fatal("scaling overrides must be key-affecting")
	}
	s.MeshW, s.MeshH = 16, 16
	grid := s.key()
	if grid == scaled || !strings.HasPrefix(grid, base) {
		t.Fatalf("explicit grid must be key-affecting and keep the base prefix: %q vs %q", grid, scaled)
	}
	s.ThreeLevel = true
	if k := s.key(); k != grid+"|3l" {
		t.Fatalf("three-level key = %q, want the suffix |3l on %q", k, grid)
	}
	plain3l := Spec{System: mustSystem("Baseline"), Workload: stamp.Intruder(),
		Threads: 8, Cache: TypicalCache(), Seed: 1, ThreeLevel: true}
	if k := plain3l.key(); k != base+"|3l" {
		t.Fatalf("three-level key = %q, want the suffix |3l on %q", k, base)
	}
}

// TestMachineParamsOverrides checks the spec-to-machine resolution:
// derived grids, cmesh concentration, and explicit-grid precedence.
func TestMachineParamsOverrides(t *testing.T) {
	s := Spec{Cache: TypicalCache()}
	if p := s.MachineParams(); p.Cores != 32 || p.MeshW != 4 || p.MeshH != 8 || p.Topo != "" || p.MidSize != 0 {
		t.Fatalf("no-override params changed: %+v", p)
	}
	if p := (Spec{Cache: TypicalCache(), ThreeLevel: true}).MachineParams(); p.MidSize != 64*1024 || p.MidWays != 8 {
		t.Fatalf("three-level middle cache = %d B, %d ways; want 64 KiB, 8 ways", p.MidSize, p.MidWays)
	}
	s.Cores = 256
	if p := s.MachineParams(); p.MeshW != 16 || p.MeshH != 16 {
		t.Fatalf("256-core grid = %dx%d, want 16x16", p.MeshW, p.MeshH)
	}
	s.Topo = "cmesh"
	if p := s.MachineParams(); p.Conc != 4 || p.MeshW*p.MeshH*p.Conc != 256 {
		t.Fatalf("cmesh params = %+v, want 4 tiles per router over 256 cores", p)
	}
	s.MeshW, s.MeshH = 8, 16
	if p := s.MachineParams(); p.MeshW != 8 || p.MeshH != 16 || p.Conc != 2 {
		t.Fatalf("explicit cmesh grid = %+v, want 8x16 with conc 2", p)
	}
	s.Topo, s.MeshW, s.MeshH = "torus", 0, 0
	s.ClusterSize = 16
	p := s.MachineParams()
	if p.Topo != "torus" || p.ClusterSize != 16 || p.Conc != 0 {
		t.Fatalf("torus params = %+v", p)
	}
	p.Validate()
}

// TestScaling256Deterministic runs a 256-core, two-level-directory machine
// on one workload per system class — lock-based (CGL), plain best-effort
// HTM (Baseline), and the full proposal (LockillerTM) — twice, and requires
// the two runs to be identical and to match the pinned cycle counts. This
// is the scaled counterpart of the golden matrix; CI's nightly job runs it
// under -race.
func TestScaling256Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("256-core runs are not -short tests")
	}
	pinned := map[string]uint64{"CGL": 2846472, "Baseline": 2086474, "LockillerTM": 670367}
	for _, name := range []string{"CGL", "Baseline", "LockillerTM"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec := Spec{System: mustSystem(name), Workload: stamp.Intruder(),
				Threads: 16, Cache: TypicalCache(), Seed: 1,
				Cores: 256, ClusterSize: 16}
			first, err := ExecuteWith(spec, ExecOptions{})
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			second, err := ExecuteWith(spec, ExecOptions{})
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if !reflect.DeepEqual(first, second) {
				t.Errorf("256-core stats.Run diverged between identical runs\nfirst : %+v\nsecond: %+v", first, second)
			}
			if first.ExecCycles != pinned[name] {
				t.Errorf("ExecCycles = %d, want %d", first.ExecCycles, pinned[name])
			}
		})
	}
}

// TestTopologyShapesPinned pins whole-machine runs on the non-mesh shapes,
// which the golden matrix (all 4x8 mesh) never reaches: a torus, a
// concentrated mesh, a torus whose X ring has length 2 (its two directions
// reach the same neighbour), and a 256-core concentrated mesh with the
// two-level directory. ExecCycles and every NoC and protocol counter must
// match, so a routing or link-contention change on these shapes shows up
// here first. The 256-core rows are not -short tests.
func TestTopologyShapesPinned(t *testing.T) {
	shapes := []struct {
		name  string
		shape Spec
	}{
		{"torus-64", Spec{Cores: 64, Topo: "torus"}},
		{"cmesh-64", Spec{Cores: 64, Topo: "cmesh"}},
		{"torus-2x32", Spec{Cores: 64, Topo: "torus", MeshW: 2, MeshH: 32}},
		{"cmesh-256", Spec{Cores: 256, Topo: "cmesh", ClusterSize: 16}},
	}
	pinned := map[string][]struct {
		cycles  uint64
		traffic stats.Traffic
	}{
		"CGL": {
			{1760699, stats.Traffic{Messages: 176423, FlitHops: 1380077, QueueWait: 17021, L1Hits: 24103, L1Misses: 37432,
				DirRequests: 37432, MemFetches: 5207, LockAcquisitions: 2560, LockHandovers: 2559}},
			{1487149, stats.Traffic{Messages: 175918, FlitHops: 886093, QueueWait: 20568, L1Hits: 24190, L1Misses: 37345,
				DirRequests: 37345, MemFetches: 5207, LockAcquisitions: 2560, LockHandovers: 2559}},
			{2497706, stats.Traffic{Messages: 176841, FlitHops: 2739437, QueueWait: 23574, L1Hits: 23999, L1Misses: 37536,
				DirRequests: 37536, MemFetches: 5207, LockAcquisitions: 2560, LockHandovers: 2559}},
			{1781850, stats.Traffic{Messages: 184573, FlitHops: 1395035, QueueWait: 19701, L1Hits: 24114, L1Misses: 37421,
				DirRequests: 37421, MemFetches: 5207, LockAcquisitions: 2560, LockHandovers: 2559}},
		},
		"LockillerTM": {
			{405437, stats.Traffic{Messages: 198657, FlitHops: 1539832, QueueWait: 78792, L1Hits: 39949, L1Misses: 38669,
				TxWBs: 2760, NacksSent: 2369, RejectsSent: 4346, RejectsReceived: 4120, WakesSent: 3938,
				DirRequests: 41728, LLCRejections: 4120, MemFetches: 5207, LockAcquisitions: 178, LockHandovers: 56}},
			{368093, stats.Traffic{Messages: 194578, FlitHops: 980812, QueueWait: 122146, L1Hits: 39180, L1Misses: 37766,
				TxWBs: 2739, NacksSent: 2125, RejectsSent: 4342, RejectsReceived: 4116, WakesSent: 3955,
				DirRequests: 40924, LLCRejections: 4116, MemFetches: 5207, LockAcquisitions: 121, LockHandovers: 20}},
			{630544, stats.Traffic{Messages: 212167, FlitHops: 3320235, QueueWait: 479046, L1Hits: 45021, L1Misses: 40708,
				TxWBs: 2777, NacksSent: 2687, RejectsSent: 5344, RejectsReceived: 5042, WakesSent: 4757,
				DirRequests: 44423, LLCRejections: 5042, MemFetches: 5207, LockAcquisitions: 244, LockHandovers: 133}},
			{419193, stats.Traffic{Messages: 211232, FlitHops: 1666201, QueueWait: 185452, L1Hits: 39630, L1Misses: 38448,
				TxWBs: 2728, NacksSent: 2099, RejectsSent: 4628, RejectsReceived: 4356, WakesSent: 4109,
				DirRequests: 41690, LLCRejections: 4356, MemFetches: 5207, LockAcquisitions: 144, LockHandovers: 42}},
		},
	}
	for _, name := range []string{"CGL", "LockillerTM"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for i, sh := range shapes {
				want := pinned[name][i]
				spec := sh.shape
				t.Run(sh.name, func(t *testing.T) {
					if spec.Cores > 64 && testing.Short() {
						t.Skip("256-core runs are not -short tests")
					}
					spec.System, spec.Workload, spec.Threads = mustSystem(name), stamp.Intruder(), 16
					spec.Cache, spec.Seed = TypicalCache(), 1
					got, err := ExecuteWith(spec, ExecOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if got.ExecCycles != want.cycles {
						t.Errorf("ExecCycles = %d, want %d", got.ExecCycles, want.cycles)
					}
					if got.Traffic != want.traffic {
						t.Errorf("Traffic = %+v\nwant      %+v", got.Traffic, want.traffic)
					}
				})
			}
		})
	}
}
