package main

import (
	"time"

	"repro/internal/obs"
)

// sampleShift sets the dispatch timing sample to one dispatch in
// 2^sampleShift. Timing every dispatch costs two clock reads per event,
// which nearly triples abort-storm-64; counting alone is cheap.
const sampleShift = 6

// sampleMul spreads the sample over dispatch indices (a Fibonacci hash),
// so it cannot fall in step with a periodic event pattern the way every
// 64th dispatch could.
const sampleMul = 0x9E3779B97F4A7C15

// Dispatch classes, named after the handler class the engine reports.
// "noc" is System.OnEvent, which also runs Bank.Receive and L1.Receive
// inline when it delivers a message, so its time is reported as
// noc_deliver.
var dispatchClasses = [...]string{"core", "l1", "bank", "closure", "noc_deliver", "other"}

const (
	clsCore = iota
	clsL1
	clsBank
	clsClosure
	clsNoc
	clsOther
	numClasses
)

func classIndex(class string) int {
	switch class {
	case "core":
		return clsCore
	case "l1":
		return clsL1
	case "bank":
		return clsBank
	case "closure":
		return clsClosure
	case "noc":
		return clsNoc
	}
	return clsOther
}

// sampledProbe is the benchmark's obs.EngineProbe. It counts every
// dispatch by class and times a 1-in-2^sampleShift sample of them. The
// sample is chosen by dispatch index, so it repeats exactly from run to
// run. Each timed dispatch is preceded by an empty timing bracket, whose
// reading is subtracted: without that, the clock's own cost (about 50 ns
// a bracket on a 2-vCPU Xeon) makes the class estimates add up to more
// than the run.
type sampledProbe struct {
	n       uint64
	timing  bool
	t       obs.Timer
	empty   time.Duration // the empty bracket of the dispatch being timed
	events  [numClasses]uint64
	samples [numClasses]uint64
	sampled [numClasses]time.Duration
}

func (p *sampledProbe) EventBegin() {
	p.n++
	if (p.n*sampleMul)>>(64-sampleShift) == 0 {
		p.timing = true
		p.empty = obs.StartTimer().Elapsed()
		p.t = obs.StartTimer()
	}
}

func (p *sampledProbe) EventEnd(class string, _ uint8) {
	c := classIndex(class)
	p.events[c]++
	if p.timing {
		p.sampled[c] += p.t.Elapsed() - p.empty
		p.samples[c]++
		p.timing = false
	}
}

// The benchmark runs the sequential engine, so the tile-parallel
// coordinator hooks never fire.
func (p *sampledProbe) Grant(int, uint64)   {}
func (p *sampledProbe) SpanEnd(int, uint64) {}
func (p *sampledProbe) StrandExec()         {}
func (p *sampledProbe) OutboxMerge(int)     {}

// estimate returns the estimated dispatch seconds of class c: its sampled
// time scaled by events per sample.
func (p *sampledProbe) estimate(c int) float64 {
	if p.samples[c] == 0 {
		return 0
	}
	return max(p.sampled[c].Seconds(), 0) * float64(p.events[c]) / float64(p.samples[c])
}

// add folds another probe's counts and samples into p.
func (p *sampledProbe) add(o *sampledProbe) {
	for c := range p.events {
		p.events[c] += o.events[c]
		p.samples[c] += o.samples[c]
		p.sampled[c] += o.sampled[c]
	}
}
