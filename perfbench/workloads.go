package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/stamp"
	"repro/internal/stats"
)

var workloadNames = []string{"fig7-quick", "abort-storm-64", "lock-256"}

// The arguments of `lockillerbench -fig 7 -quick`.
var (
	fig7Workloads = []string{"intruder", "vacation", "yada"}
	fig7Threads   = []int{2, 8, 32}
	fig7Systems   = []string{"Baseline", "LockillerTM-RAI", "LockillerTM-RRI",
		"LockillerTM-RWI", "LockillerTM-RWL", "LockillerTM-RWIL", "LockillerTM"}
)

// inputSeeds is how many input seeds one workload seed stands for, and
// seedStride how far apart they lie. Untraced passes cycle through them,
// so a run's median does not hang on one seed's transactional luck
// (abort-storm-64's work varies by about ±5% from seed to seed).
const (
	inputSeeds = 4
	seedStride = 1000
)

// inputSeed is the simulation seed of untraced pass i under workload
// seed n. Pass 0 uses n itself.
func inputSeed(n uint64, i int) uint64 { return n + uint64(i%inputSeeds)*seedStride }

// workload is one benchmark input: the specs it runs, in order, and for
// fig7-quick the sweep arguments handed to harness.RunFig7. The specs
// carry no seed; at stamps the seed of a pass.
type workload struct {
	name  string
	specs []harness.Spec
	sweep []stamp.Profile // nil for the single-run workloads
}

// at returns the workload's specs under simulation seed seed.
func (w *workload) at(seed uint64) []harness.Spec {
	out := append([]harness.Spec(nil), w.specs...)
	for i := range out {
		out[i].Seed = seed
	}
	return out
}

func newWorkload(name string) (*workload, error) {
	w := &workload{name: name}
	switch name {
	case "fig7-quick":
		cgl, err := harness.SystemByName("CGL")
		if err != nil {
			return nil, err
		}
		systems := []harness.SystemDef{cgl}
		for _, n := range fig7Systems {
			s, err := harness.SystemByName(n)
			if err != nil {
				return nil, err
			}
			systems = append(systems, s)
		}
		for _, n := range fig7Workloads {
			wl, err := stamp.ByName(n)
			if err != nil {
				return nil, err
			}
			w.sweep = append(w.sweep, wl)
			for _, t := range fig7Threads {
				for _, s := range systems {
					w.specs = append(w.specs, harness.Spec{System: s, Workload: wl, Threads: t,
						Cache: harness.TypicalCache()})
				}
			}
		}
	case "abort-storm-64":
		return w, w.scaling(64, "Baseline")
	case "lock-256":
		return w, w.scaling(256, "CGL", "LockillerTM-RWL", "LockillerTM-RWIL", "LockillerTM")
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	return w, nil
}

func (w *workload) scaling(cores int, systems ...string) error {
	wl, err := stamp.ByName("intruder")
	if err != nil {
		return err
	}
	for _, n := range systems {
		sys, err := harness.SystemByName(n)
		if err != nil {
			return err
		}
		w.specs = append(w.specs, harness.ScalingSpec(sys, wl, cores))
	}
	return nil
}

// untracedPass is one timed execution of the whole workload with no
// instrumentation attached.
type untracedPass struct {
	seed   uint64
	wall   time.Duration
	alloc  uint64
	cycles uint64
}

func (w *workload) untraced(chk *checker, seed uint64) untracedPass {
	p := untracedPass{seed: seed}
	specs := w.at(seed)
	mem := obs.TakeMemSnapshot()
	timer := obs.StartTimer()
	var results []*stats.Run
	var errs []error
	if w.sweep != nil {
		r := w.runSweep(seed, nil)
		p.wall = timer.Elapsed()
		p.alloc = mem.Delta().TotalAllocBytes
		for _, s := range specs {
			res, err := r.Get(s) // memo hit unless the sweep failed this spec
			results, errs = append(results, res), append(errs, err)
		}
	} else {
		for _, s := range specs {
			res, err := harness.ExecuteWith(s, harness.ExecOptions{})
			results, errs = append(results, res), append(errs, err)
		}
		p.wall = timer.Elapsed()
		p.alloc = mem.Delta().TotalAllocBytes
	}
	for i, s := range specs {
		if chk.check(s, results[i], errs[i]) {
			p.cycles += results[i].ExecCycles
		}
	}
	return p
}

// runSweep runs the fig7-quick sweep the way `lockillerbench -fig 7
// -quick` does: a default runner (one worker per CPU) and RunFig7. A spec
// that fails does not stop the sweep; the caller finds it through Get.
func (w *workload) runSweep(seed uint64, progress obs.ProgressSink) *harness.Runner {
	r := harness.NewRunner(seed)
	r.Progress = progress
	_, _ = harness.RunFig7(r, nil, w.sweep, fig7Threads) // failures are checked per spec
	return r
}

// sweepSink records the runner's per-spec progress as spans.
type sweepSink struct {
	t      *tracer
	parent int
	walls  []float64
	keys   []string
}

func (s *sweepSink) Event(e obs.ProgressEvent) {
	s.keys = append(s.keys, e.Key)
	s.walls = append(s.walls, e.Wall.Seconds())
	s.t.add("harness.spec", e.Key, s.parent, e.Wall)
}

// tracedPass is one traced execution of the workload. For fig7-quick it
// is the sweep with a progress sink, then a replay of every spec through
// the single-run path; the single-run workloads go straight to that path.
type tracedPass struct {
	t         *tracer
	wall      float64   // the traced counterpart of untracedPass.wall
	specWalls []float64 // per-spec wall as the executor saw it
	idle      float64   // executor seconds with no spec running
	probe     sampledProbe
	specs     []harness.Spec
	results   []*stats.Run
}

func (w *workload) traced(chk *checker, dc *harness.DiskCache, seed uint64) *tracedPass {
	specs := w.at(seed)
	p := &tracedPass{t: newTracer(), specs: specs}
	root := p.t.begin("workload", "", 0)
	if w.sweep != nil {
		id := p.t.begin("harness.sweep", "", root)
		sink := &sweepSink{t: p.t, parent: id}
		r := w.runSweep(seed, sink)
		p.t.end(id)
		p.wall = p.t.spans[id-1].dur()
		p.specWalls = sink.walls
		p.idle = float64(r.Workers) * p.wall
		for _, x := range sink.walls {
			p.idle -= x
		}
		checkKeys(chk, specs, sink.keys)
		for _, s := range specs {
			res, err := r.Get(s)
			chk.check(s, res, err)
		}
	}
	for _, s := range specs {
		p.replay(s, root, chk, dc)
	}
	p.t.end(root)
	if w.sweep == nil {
		// The executor is this goroutine: a spec's wall is its gen, build
		// and run; idle is the loop's time outside the bench.spec spans.
		gen, build, run := p.t.durations("stamp.gen"), p.t.durations("cpu.build"), p.t.durations("cpu.run")
		for _, s := range specs {
			k := s.Key()
			p.specWalls = append(p.specWalls, gen[k]+build[k]+run[k])
			p.wall += gen[k] + build[k] + run[k]
		}
		p.idle = p.t.spans[root-1].dur()
		for _, d := range p.t.durations("bench.spec") {
			p.idle -= d
		}
	}
	return p
}

// replay runs one spec through the layers ExecuteWith composes, each call
// in its own span, with a private sampled probe, then stores the result
// in the disk cache and loads it back. The separate stamp.Programs call
// times generation on its own; NewMachineFor generates the same programs
// again internally, so the build's own cost is build minus gen.
func (p *tracedPass) replay(s harness.Spec, parent int, chk *checker, dc *harness.DiskCache) {
	key := s.Key()
	specID := p.t.begin("bench.spec", key, parent)
	defer p.t.end(specID)

	id := p.t.begin("stamp.gen", key, specID)
	stamp.Programs(s.Workload, s.Threads, s.Seed)
	p.t.end(id)

	probe := &sampledProbe{}
	id = p.t.begin("cpu.build", key, specID)
	m := harness.NewMachineFor(s, harness.ExecOptions{Probe: probe})
	p.t.end(id)

	id = p.t.begin("cpu.run", key, specID)
	res, err := m.Run()
	p.t.end(id)
	p.probe.add(probe)
	if !chk.check(s, res, err) {
		return
	}
	p.results = append(p.results, res)

	id = p.t.begin("diskcache.store", key, specID)
	err = dc.Store(key, s.Seed, res)
	p.t.end(id)
	id = p.t.begin("diskcache.load", key, specID)
	back, ok := dc.Load(key, s.Seed)
	p.t.end(id)
	chk.attempted++
	switch {
	case err != nil:
		chk.fail(key, "disk cache store: %v", err)
	case !ok:
		chk.fail(key, "disk cache load missed a stored result")
	case digest(back) != digest(res):
		chk.fail(key, "disk cache returned digest %s, stored %s", digest(back), digest(res))
	}
}

// checkKeys verifies that the runner executed exactly the given specs.
func checkKeys(chk *checker, specs []harness.Spec, got []string) {
	want := make(map[string]int)
	for _, s := range specs {
		want[s.Key()]++
	}
	for _, k := range got {
		want[k]--
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	chk.attempted++
	for _, k := range keys {
		switch n := want[k]; {
		case n > 0:
			chk.fail(k, "in the workload but not run by RunFig7")
		case n < 0:
			chk.fail(k, "run by RunFig7 but not in the workload")
		}
	}
}
