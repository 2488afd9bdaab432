package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

type metricDef struct{ name, unit string }

// endToEnd are the untraced metrics; setup_s is added by run.py, which
// times process start to the start of the timed region from outside.
// Peak RSS is recorded on the info line but is not a metric: on lock-256
// it reads either about 76 or about 96 MB from run to run, depending on
// where garbage collections fall between back-to-back machine builds.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"sim_cycles_per_s", "cycles/s"},
	{"host_alloc_mb", "MB"},
}

var perLayer = func() []metricDef {
	m := []metricDef{
		{"harness.spec_wall_p50_s", "s"},
		{"harness.spec_wall_p85_s", "s"},
		{"harness.idle_s", "s"},
		{"stamp.gen_s", "s"},
		{"stamp.gen_calls", "count"},
		{"stamp.gen_repeat_share", "share"},
		{"cpu.build_s", "s"},
		{"cpu.run_s", "s"},
		{"cpu.reuse_ceiling_share", "share"},
		{"sim.events", "count"},
		{"sim.fused_runs", "count"},
		{"sim.events_per_s", "events/s"},
		{"sim.nondispatch_s", "s"},
		{"dispatch.sample_rate", "share"},
	}
	for _, c := range dispatchClasses[:clsOther] { // no workload dispatches an "other" handler
		m = append(m, metricDef{"dispatch." + c + "_s", "s"}, metricDef{"dispatch." + c + "_events", "count"})
	}
	return append(m,
		metricDef{"noc.messages", "count"},
		metricDef{"noc.flit_hops", "count"},
		metricDef{"noc.queue_wait_cycles", "cycles"},
		metricDef{"coherence.l1_hit_ratio", "share"},
		metricDef{"coherence.dir_requests", "count"},
		metricDef{"coherence.nacks_sent", "count"},
		metricDef{"coherence.mem_fetches", "count"},
		metricDef{"htm.commit_rate", "share"},
		metricDef{"htm.aborts", "count"},
		metricDef{"diskcache.store_s", "s"},
		metricDef{"diskcache.load_s", "s"},
		metricDef{"trace.overhead_share", "share"},
	)
}()

// endToEndMetrics takes, for each input seed, the median of its passes,
// and averages over the seeds, so that which seeds got an extra pass does
// not move the result.
func endToEndMetrics(passes []untracedPass) map[string]float64 {
	bySeed := make(map[uint64][]untracedPass)
	for _, p := range passes {
		bySeed[p.seed] = append(bySeed[p.seed], p)
	}
	var wall, alloc, cycles float64
	for _, ps := range bySeed {
		var w, a []float64
		for _, p := range ps {
			w = append(w, p.wall.Seconds())
			a = append(a, float64(p.alloc))
		}
		wall += median(w)
		alloc += median(a)
		cycles += float64(ps[0].cycles)
	}
	n := float64(len(bySeed))
	return map[string]float64{
		"wall_s":           wall / n,
		"sim_cycles_per_s": cycles / wall,
		"host_alloc_mb":    alloc / n / 1e6,
	}
}

// layerMetrics derives the per-layer metrics of one traced pass, given
// the wall time of the untraced pass run beside it.
func layerMetrics(p *tracedPass, untracedWall float64) map[string]float64 {
	m := make(map[string]float64)
	self := p.t.selfTimes()

	walls := append([]float64(nil), p.specWalls...)
	sort.Float64s(walls)
	m["harness.spec_wall_p50_s"] = percentile(walls, 0.50)
	m["harness.spec_wall_p85_s"] = percentile(walls, 0.85)
	m["harness.idle_s"] = p.idle

	gen, build := p.t.durations("stamp.gen"), p.t.durations("cpu.build")
	m["stamp.gen_s"] = self["stamp.gen"]
	m["cpu.build_s"] = self["cpu.build"] - self["stamp.gen"]
	m["cpu.run_s"] = self["cpu.run"]
	m["diskcache.store_s"] = self["diskcache.store"]
	m["diskcache.load_s"] = self["diskcache.load"]

	// A generation call repeats when an earlier spec of the workload had
	// the same (workload, threads, seed); a build could have been a reuse
	// when an earlier spec had the same machine shape.
	generated, shapes := make(map[string]bool), make(map[string]bool)
	repeats, reusable := 0, 0.0
	for _, s := range p.specs {
		g := fmt.Sprintf("%s|%d|%d", s.Workload.Name, s.Threads, s.Seed)
		if generated[g] {
			repeats++
		}
		generated[g] = true
		shape := fmt.Sprintf("%s|%d|%s|%d|%s|%d", s.System.Name, s.Threads, s.Cache.Name, s.Cores, s.Topo, s.ClusterSize)
		if shapes[shape] {
			reusable += build[s.Key()] - gen[s.Key()]
		}
		shapes[shape] = true
	}
	m["stamp.gen_calls"] = float64(len(gen))
	m["stamp.gen_repeat_share"] = float64(repeats) / float64(len(p.specs))
	m["cpu.reuse_ceiling_share"] = reusable / untracedWall

	dispatched := 0.0
	for c, name := range dispatchClasses {
		est := p.probe.estimate(c)
		dispatched += est
		m["dispatch."+name+"_s"] = est
		m["dispatch."+name+"_events"] = float64(p.probe.events[c])
	}
	m["dispatch.sample_rate"] = 1.0 / (1 << sampleShift)
	m["sim.nondispatch_s"] = m["cpu.run_s"] - dispatched

	var events, fused, hits, misses, commits, attempts, aborts uint64
	for _, r := range p.results {
		events += r.EventsExecuted
		fused += r.FusedRuns
		t := r.Traffic
		m["noc.messages"] += float64(t.Messages)
		m["noc.flit_hops"] += float64(t.FlitHops)
		m["noc.queue_wait_cycles"] += float64(t.QueueWait)
		m["coherence.dir_requests"] += float64(t.DirRequests)
		m["coherence.nacks_sent"] += float64(t.NacksSent)
		m["coherence.mem_fetches"] += float64(t.MemFetches)
		hits += t.L1Hits
		misses += t.L1Misses
		for _, c := range r.Cores {
			commits += c.Commits
			attempts += c.Attempts
		}
		n, _ := r.TotalAborts()
		aborts += n
	}
	m["sim.events"] = float64(events)
	m["sim.fused_runs"] = float64(fused)
	m["sim.events_per_s"] = float64(events) / untracedWall
	m["coherence.l1_hit_ratio"] = ratio(hits, hits+misses)
	m["htm.commit_rate"] = ratio(commits, attempts)
	m["htm.aborts"] = float64(aborts)
	m["trace.overhead_share"] = p.wall/untracedWall - 1
	return m
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// median of xs; xs is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile of sorted xs.
func percentile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// peakRSSMB reads the process's peak resident set (VmHWM) from procfs.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
