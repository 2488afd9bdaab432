package harness

import (
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/htm"
	"repro/internal/stamp"
)

// smallSpec runs a system on a 4-core 2x2 machine with a 1 MiB LLC.
func smallSpec(system string, wl stamp.Profile, threads int, seed uint64) Spec {
	return Spec{System: mustSystem(system), Workload: wl, Threads: threads,
		Cache: CacheConfig{Name: "small4", L1Size: 32 * 1024, LLCSize: 1 << 20},
		Seed:  seed, Cores: 4}
}

// custom labels runs whose programs come from ExecOptions.Programs.
var custom = stamp.Profile{Name: "custom"}

func TestPresetsRunKmeans(t *testing.T) {
	progs := stamp.Programs(stamp.Kmeans(), 4, 7)
	for _, sys := range Systems() {
		res, err := ExecuteWith(smallSpec(sys.Name, custom, 4, 7), ExecOptions{Programs: progs})
		if err != nil {
			t.Fatalf("%s: %v", sys.Name, err)
		}
		if res.Sections() == 0 || res.ExecCycles == 0 {
			t.Fatalf("%s: empty result", sys.Name)
		}
	}
}

func TestSectionConservation(t *testing.T) {
	// Every system must complete exactly the same atomic sections.
	progs := stamp.Programs(stamp.Intruder(), 4, 9)
	var want uint64
	for _, p := range progs {
		want += uint64(p.CountAtomic())
	}
	for _, name := range []string{"CGL", "Baseline", "LockillerTM"} {
		res, err := ExecuteWith(smallSpec(name, custom, 4, 7), ExecOptions{Programs: progs})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Sections() != want {
			t.Fatalf("%s completed %d sections, want %d", name, res.Sections(), want)
		}
	}
}

func TestCustomWorkloadAPI(t *testing.T) {
	// The quickstart shape: hand-built programs through ExecOptions.
	prog := cpu.Program{
		cpu.AtomicStatic([]cpu.Op{cpu.Read(9000), cpu.Compute(10), cpu.Write(9000)}),
		cpu.Plain([]cpu.Op{cpu.Compute(50)}),
	}
	res, err := ExecuteWith(smallSpec("LockillerTM", custom, 2, 7), ExecOptions{Programs: []cpu.Program{prog, prog}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sections() != 2 {
		t.Fatalf("sections = %d", res.Sections())
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	progs := stamp.Programs(stamp.VacationHigh(), 4, 3)
	spec := smallSpec("LockillerTM", custom, 4, 7)
	r1, err := ExecuteWith(spec, ExecOptions{Programs: progs})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ExecuteWith(spec, ExecOptions{Programs: progs})
	if err != nil {
		t.Fatal(err)
	}
	if r1.ExecCycles != r2.ExecCycles || r1.CommitRate() != r2.CommitRate() {
		t.Fatal("identical configs diverged")
	}
}

// TestProgramsThreadMismatch: a program count that disagrees with the
// spec's thread count is an error, not a panic.
func TestProgramsThreadMismatch(t *testing.T) {
	progs := stamp.Programs(stamp.Intruder(), 2, 1)
	_, err := ExecuteWith(smallSpec("Baseline", custom, 4, 1), ExecOptions{Programs: progs})
	if err == nil || !strings.Contains(err.Error(), "2 programs for 4 threads") {
		t.Fatalf("err = %v, want a program/thread mismatch error", err)
	}
}

// TestPolicyFlagsAfterDefaults: a SystemDef whose policy flags change after
// htm.Config.Defaults must build a system with that policy. Each mutated
// row carries the flags of another Table II row, so it must also reproduce
// that row's golden cycles exactly.
func TestPolicyFlagsAfterDefaults(t *testing.T) {
	rwil := mustSystem("LockillerTM-RWIL")
	rwil.HTM.SwitchingMode = true // = LockillerTM
	rai := mustSystem("LockillerTM-RAI")
	rai.HTM.RejectPolicy = htm.WaitWakeup // = LockillerTM-RWI
	for _, c := range []struct {
		sys                SystemDef
		conflict, overflow string
		want               string
	}{
		{rwil, "recovery/wait-wakeup", "switching-mode", "LockillerTM"},
		{rai, "recovery/wait-wakeup", "abort", "LockillerTM-RWI"},
	} {
		spec := Spec{System: c.sys, Workload: stamp.Intruder(), Threads: 4, Cache: TypicalCache(), Seed: 1}
		m := NewMachineFor(spec, ExecOptions{})
		if got := m.Sys.Conflict.Name(); got != c.conflict {
			t.Errorf("%s with %s's flags: conflict policy %s, want %s", c.sys.Name, c.want, got, c.conflict)
		}
		if got := m.Sys.Overflow.Name(); got != c.overflow {
			t.Errorf("%s with %s's flags: overflow policy %s, want %s", c.sys.Name, c.want, got, c.overflow)
		}
		res, err := runAndRelease(m)
		if err != nil {
			t.Fatal(err)
		}
		if want := goldenCycles[goldenKey{c.want, "intruder", 4}]; res.ExecCycles != want {
			t.Errorf("%s with %s's flags: cycles = %d, want %d", c.sys.Name, c.want, res.ExecCycles, want)
		}
	}
}
