package main

import (
	"errors"
	"io"
	"testing"

	"repro/internal/harness"
)

// smallSpec is fig7-quick's first spec (CGL, intruder, 2 threads) at the
// default seed, which has committed digests.
func smallSpec(t *testing.T) (*workload, harness.Spec) {
	t.Helper()
	w, err := newWorkload("fig7-quick")
	if err != nil {
		t.Fatal(err)
	}
	return w, w.at(1)[0]
}

func TestCommittedDigestPassesAndPerturbedFails(t *testing.T) {
	tab, err := loadDigests(committedDigests)
	if err != nil {
		t.Fatal(err)
	}
	w, s := smallSpec(t)
	if len(tab[w.name]["1"]) == 0 {
		t.Fatal("no committed digests for fig7-quick at seed 1")
	}
	res, err := harness.ExecuteWith(s, harness.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}

	chk, err := newChecker(tab, w, []uint64{1}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !chk.check(s, res, nil) {
		t.Fatalf("committed digest rejected %s", s.Key())
	}

	perturbed := append([]string(nil), tab[w.name]["1"]...)
	perturbed[0] = "0" + perturbed[0][1:]
	if perturbed[0] == tab[w.name]["1"][0] {
		perturbed[0] = "1" + perturbed[0][1:]
	}
	chk, err = newChecker(digestTable{w.name: {"1": perturbed}}, w, []uint64{1}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if chk.check(s, res, nil) || chk.failed != 1 || chk.attempted != 1 {
		t.Fatalf("perturbed digest: failed=%d attempted=%d, want 1/1", chk.failed, chk.attempted)
	}
}

func TestErrorIsAFailureNotAnAbort(t *testing.T) {
	_, s := smallSpec(t)
	chk := &checker{seen: make(map[string]string), log: io.Discard}
	if chk.check(s, nil, errors.New("boom")) {
		t.Fatal("an errored spec passed")
	}
	res, err := harness.ExecuteWith(s, harness.ExecOptions{})
	if !chk.check(s, res, err) {
		t.Fatal("a clean spec after a failed one did not pass")
	}
	if chk.failed != 1 || chk.attempted != 2 {
		t.Fatalf("failed=%d attempted=%d, want 1/2", chk.failed, chk.attempted)
	}
}

func TestSampleRepeats(t *testing.T) {
	_, s := smallSpec(t)
	var probes [2]sampledProbe
	for i := range probes {
		if _, err := harness.NewMachineFor(s, harness.ExecOptions{Probe: &probes[i]}).Run(); err != nil {
			t.Fatal(err)
		}
	}
	a, b := probes[0], probes[1]
	if a.events != b.events || a.samples != b.samples {
		t.Fatalf("sample differs between runs: %v/%v vs %v/%v", a.events, a.samples, b.events, b.samples)
	}
	var n uint64
	for _, x := range a.samples {
		n += x
	}
	if n == 0 {
		t.Fatal("no dispatch was sampled")
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "sweep", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "spec", Start: 1, End: 5},
		{ID: 3, Parent: 1, Name: "spec", Start: 3, End: 6}, // overlaps its sibling
		{ID: 4, Parent: 1, Name: "spec", Start: 8, End: 9},
	}}
	self := tr.selfTimes()
	if got := self["sweep"]; got != 4 {
		t.Errorf("sweep self time = %v, want 4 (10 minus the 6 its children cover)", got)
	}
	if got := self["spec"]; got != 8 {
		t.Errorf("spec self time = %v, want 8", got)
	}
}
