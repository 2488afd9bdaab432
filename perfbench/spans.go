package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"

	"repro/internal/obs"
)

// span is one timed call across a layer boundary. Spans of one spec carry
// its key in Spec. Times are seconds since the tracer started.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Spec   string  `json:"spec,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the benchmark ends.
type tracer struct {
	clock obs.Timer
	spans []span
}

func newTracer() *tracer { return &tracer{clock: obs.StartTimer()} }

func (t *tracer) now() float64 { return t.clock.Elapsed().Seconds() }

// begin opens a span and returns its id; parent 0 means a root span.
func (t *tracer) begin(name, spec string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Spec: spec, Start: t.now()})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = t.now() }

// add records a span that ended now and lasted d, for calls timed by
// someone else (the harness runner's per-spec wall).
func (t *tracer) add(name, spec string, parent int, d time.Duration) {
	end := t.now()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Spec: spec, Start: end - d.Seconds(), End: end})
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its children cover. Children may overlap (parallel sweep
// workers), so the covered part is the union of their intervals.
func (t *tracer) selfTimes() map[string]float64 {
	children := make(map[int][]span)
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.Name] += s.dur() - covered
	}
	return self
}

// durations sums span durations per name, per spec key.
func (t *tracer) durations(name string) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Spec] += s.dur()
		}
	}
	return out
}

// write emits the spans as JSON lines after a header line.
func (t *tracer) write(w io.Writer, header any) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
