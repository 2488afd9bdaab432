package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"strconv"

	"repro/internal/harness"
	"repro/internal/htm"
	"repro/internal/stats"
)

// digests.json holds the expected architectural digest of every spec,
// per workload and simulation seed, in the workload's spec order:
// {"<workload>": {"<seed>": ["<digest>", ...]}}. Regenerate it with
// -record after a change that is meant to alter the simulated machine.
//
//go:embed digests.json
var committedDigests []byte

type digestTable map[string]map[string][]string

func loadDigests(b []byte) (digestTable, error) {
	var t digestTable
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return t, nil
}

// digest hashes the architectural outcome of one run: the fields the
// fusion-off golden test compares (ExecCycles, every Traffic counter,
// aborts by cause, per-core Commits/Attempts). EventsExecuted, FusedRuns
// and Transitions are left out, because event fusion may legitimately
// change them. Traffic counters that read zero are skipped, so adding a
// counter does not change the digest of runs that never touch it.
func digest(r *stats.Run) string {
	h := sha256.New()
	fmt.Fprintf(h, "cycles=%d\n", r.ExecCycles)
	tv := reflect.ValueOf(r.Traffic)
	for i := 0; i < tv.NumField(); i++ {
		if v := tv.Field(i).Uint(); v != 0 {
			fmt.Fprintf(h, "%s=%d\n", tv.Type().Field(i).Name, v)
		}
	}
	_, byCause := r.TotalAborts()
	causes := make([]int, 0, len(byCause))
	for c := range byCause {
		causes = append(causes, int(c))
	}
	sort.Ints(causes)
	for _, c := range causes {
		fmt.Fprintf(h, "abort%d=%d\n", c, byCause[htm.AbortCause(c)])
	}
	for _, c := range r.Cores {
		fmt.Fprintf(h, "core%d=%d/%d\n", c.ID, c.Commits, c.Attempts)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// checker counts spec outcomes and failures. A failure is a spec that
// returned an error, completed the wrong number of atomic sections,
// produced a digest other than the committed one (when its seed has
// committed digests), or produced different digests on two executions
// within one benchmark run.
type checker struct {
	want      map[string]string // committed digest per spec key
	seen      map[string]string // first digest observed per spec key in this run
	log       io.Writer
	attempted int
	failed    int
}

// newChecker takes the committed digests of w under each of seeds.
func newChecker(t digestTable, w *workload, seeds []uint64, log io.Writer) (*checker, error) {
	c := &checker{want: make(map[string]string), seen: make(map[string]string), log: log}
	for _, seed := range seeds {
		ds, ok := t[w.name][strconv.FormatUint(seed, 10)]
		if !ok {
			continue
		}
		specs := w.at(seed)
		if len(ds) != len(specs) {
			return nil, fmt.Errorf("digests.json: %s seed %d has %d digests for %d specs", w.name, seed, len(ds), len(specs))
		}
		for i, s := range specs {
			c.want[s.Key()] = ds[i]
		}
	}
	return c, nil
}

// check records one spec outcome and reports whether it passed.
func (c *checker) check(s harness.Spec, res *stats.Run, err error) bool {
	c.attempted++
	key := s.Key()
	if err != nil {
		return c.fail(key, "%v", err)
	}
	if got, want := res.Sections(), uint64(s.Workload.TotalSections); got != want {
		return c.fail(key, "%d atomic sections completed, want %d", got, want)
	}
	d := digest(res)
	if prev, ok := c.seen[key]; ok && prev != d {
		return c.fail(key, "digest %s differs from %s earlier in this run", d, prev)
	}
	c.seen[key] = d
	if want, ok := c.want[key]; ok && d != want {
		return c.fail(key, "digest %s, committed %s", d, want)
	}
	return true
}

// fail counts and logs one failure of the check that is under way.
func (c *checker) fail(key, format string, args ...any) bool {
	c.failed++
	fmt.Fprintf(c.log, "perfbench: FAIL %s: %s\n", key, fmt.Sprintf(format, args...))
	return false
}

// record sets the digests of w under seed in the table at path.
func record(path string, w *workload, seed uint64, seen map[string]string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	t, err := loadDigests(b)
	if err != nil {
		return err
	}
	if t == nil {
		t = digestTable{}
	}
	if t[w.name] == nil {
		t[w.name] = map[string][]string{}
	}
	var ds []string
	for _, s := range w.at(seed) {
		ds = append(ds, seen[s.Key()])
	}
	t[w.name][strconv.FormatUint(seed, 10)] = ds
	out, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
