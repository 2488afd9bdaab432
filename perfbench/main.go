// Command perfbench is the repository benchmark. It runs one workload
// closed loop on the public simulator API for a fixed number of seconds,
// checks every spec's architectural result against committed digests, and
// prints the metrics as one JSON line. Run it through run.py, which builds
// it and adds the set-up time:
//
//	python3 perfbench/run.py --workload fig7-quick --seed 1 --seconds 20 --trace 0
//
// With -trace 0 it reports the end-to-end metrics of untraced passes,
// which cycle through the workload seed's input seeds. With -trace 1 it
// alternates untraced and traced passes on the workload seed itself and
// reports the per-layer metrics of the traced ones; see NOTES.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/harness"
	"repro/internal/obs"
)

// readyLine marks the end of set-up on stdout; run.py times process start
// to this line.
const readyLine = "perfbench: timed region starts"

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measure for this many seconds (at least one pass)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics of untraced passes; 1: per-layer metrics of traced passes")
	setupOnly := flag.Bool("setup-only", false, "exit when set-up is done")
	workDir := flag.String("workdir", "", "directory for the traced passes' disk cache and spans (default: a temporary directory)")
	recordTo := flag.String("record", "", "run one pass per input seed and write their digests into this digests.json")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}

	digests, err := loadDigests(committedDigests)
	if err != nil {
		return err
	}
	w, err := newWorkload(*name)
	if err != nil {
		return err
	}
	var seeds []uint64
	for i := 0; i < inputSeeds; i++ {
		seeds = append(seeds, inputSeed(*seed, i))
	}
	chk, err := newChecker(digests, w, seeds, os.Stderr)
	if err != nil {
		return err
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintln(out, readyLine)
	if err := out.Flush(); err != nil {
		return err
	}
	if *setupOnly {
		return nil
	}

	if *recordTo != "" {
		for _, s := range seeds {
			chk := &checker{seen: make(map[string]string), log: os.Stderr}
			w.untraced(chk, s)
			if chk.failed > 0 {
				return fmt.Errorf("seed %d: %d of %d checks failed; not recording", s, chk.failed, chk.attempted)
			}
			if err := record(*recordTo, w, s, chk.seen); err != nil {
				return err
			}
		}
		return nil
	}

	clock := obs.StartTimer()
	more := func(n int) bool { return n == 0 || clock.Elapsed().Seconds() < *seconds }
	metrics := make(map[string]metric)
	var passWalls []float64 // untraced passes, in order
	if *trace == 0 {
		var ps []untracedPass
		for more(len(ps)) {
			p := w.untraced(chk, inputSeed(*seed, len(ps)))
			ps = append(ps, p)
			passWalls = append(passWalls, p.wall.Seconds())
		}
		vals := endToEndMetrics(ps)
		for _, d := range endToEnd {
			metrics[d.name] = metric{vals[d.name], d.unit}
		}
	} else {
		dir := *workDir
		if dir == "" {
			dir = os.TempDir()
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		cacheDir, err := os.MkdirTemp(dir, "diskcache-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(cacheDir)
		dc, err := harness.OpenDiskCache(cacheDir)
		if err != nil {
			return err
		}
		var traced []*tracedPass
		per := make(map[string][]float64)
		for more(len(traced)) {
			u := w.untraced(chk, *seed)
			passWalls = append(passWalls, u.wall.Seconds())
			p := w.traced(chk, dc, *seed)
			traced = append(traced, p)
			for k, v := range layerMetrics(p, u.wall.Seconds()) {
				per[k] = append(per[k], v)
			}
		}
		for _, d := range perLayer {
			v := 0.0
			if xs := per[d.name]; len(xs) > 0 {
				v = median(xs)
			}
			metrics[d.name] = metric{v, d.unit}
		}
		path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed))
		if err := writeSpans(path, w.name, *seed, traced); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	}

	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	info, err := json.Marshal(map[string]any{
		"host": hostRecord(), "workload": w.name, "seed": *seed, "untraced_pass_walls_s": passWalls,
		"specs_per_pass": len(w.specs), "workers": harness.DefaultWorkers(0), "peak_rss_mb": rss,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(info))
	res, err := json.Marshal(result{
		Correct:   chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(res))
	return out.Flush()
}

// hostRecord describes the machine a result was measured on.
func hostRecord() map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  model,
		"go_version": runtime.Version(),
	}
}

// writeSpans writes every traced pass's spans, each pass after a header
// line that records the host and the probe's sample rate.
func writeSpans(path, workload string, seed uint64, passes []*tracedPass) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for i, p := range passes {
		header := map[string]any{"pass": i, "workload": workload, "seed": seed,
			"host": hostRecord(), "dispatch_sample_rate": 1.0 / (1 << sampleShift)}
		if err := p.t.write(bw, header); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
