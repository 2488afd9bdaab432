package sim

import (
	"fmt"
	"testing"
)

// handler is a minimal typed-event sink for benchmarking.
type handler struct {
	e *Engine
	n uint64
	N uint64
	d uint64
}

func (h *handler) OnEvent(kind uint8, a uint64, p any) {
	h.n++
	if h.n < h.N {
		h.e.AfterEvent(h.d, h, kind, a, p)
	}
}

// benchTypedChain runs a self-rescheduling typed-event chain with delay d,
// exercising the ring (d < ringSize) or the heap (d >= ringSize).
func benchTypedChain(b *testing.B, d uint64) {
	e := NewEngine()
	e.Watchdog = 0 // the chain makes no simulated "progress" on purpose
	h := &handler{e: e, N: uint64(b.N), d: d}
	e.AfterEvent(d, h, 0, 0, nil)
	b.ResetTimer()
	if err := e.Run(0); err != nil {
		b.Fatal(err)
	}
	if h.n != uint64(b.N) {
		b.Fatalf("ran %d events, want %d", h.n, b.N)
	}
}

// BenchmarkTypedEventRing measures the bucket-ring fast path: small-delay
// typed events, the dominant pattern in the coherence model.
func BenchmarkTypedEventRing(b *testing.B) { benchTypedChain(b, 2) }

// BenchmarkTypedEventHeap measures the 4-ary heap path: delays beyond the
// ring horizon (memory latencies, retry backoffs).
func BenchmarkTypedEventHeap(b *testing.B) { benchTypedChain(b, 100) }

// ticker is handler's tick twin: a self-re-arming tick chain.
type ticker struct {
	e *Engine
	n uint64
	N uint64
	d uint64
}

func (t *ticker) OnTick(id uint32) {
	t.n++
	if t.n < t.N {
		t.e.AfterTick(t.d, id)
	}
}

// BenchmarkEngineTicks compares a self-re-arming tick chain against the
// same chain of typed events, at a short delay and at the last cycle of
// the ring horizon (the longest delay a tick can take).
func BenchmarkEngineTicks(b *testing.B) {
	for _, d := range []uint64{2, TickHorizon - 1} {
		b.Run(fmt.Sprintf("tick/d=%d", d), func(b *testing.B) {
			e := NewEngine()
			e.Watchdog = 0
			tk := &ticker{e: e, N: uint64(b.N), d: d}
			e.SetTick(tk)
			e.AfterTick(d, 0)
			b.ResetTimer()
			if err := e.Run(0); err != nil {
				b.Fatal(err)
			}
			if tk.n != uint64(b.N) {
				b.Fatalf("ran %d ticks, want %d", tk.n, b.N)
			}
		})
		b.Run(fmt.Sprintf("event/d=%d", d), func(b *testing.B) { benchTypedChain(b, d) })
	}
}

// BenchmarkClosureEventRing measures the closure API on the same small-delay
// pattern, for comparison against the typed path.
func BenchmarkClosureEventRing(b *testing.B) {
	e := NewEngine()
	e.Watchdog = 0
	var n uint64
	var tick func()
	tick = func() {
		n++
		if n < uint64(b.N) {
			e.After(2, tick)
		}
	}
	e.After(2, tick)
	b.ResetTimer()
	if err := e.Run(0); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMixedHorizon interleaves ring and heap traffic the way the full
// simulator does (mostly short latencies, occasional memory-scale delays).
func BenchmarkMixedHorizon(b *testing.B) {
	e := NewEngine()
	h := &handler{e: e, N: uint64(b.N), d: 1}
	for i := 0; i < 16; i++ {
		d := uint64(1 + i%5)
		if i%8 == 7 {
			d = 100 // heap-bound
		}
		e.AfterEvent(d, h, 0, 0, nil)
	}
	b.ResetTimer()
	for h.n < uint64(b.N) {
		if !e.Step() {
			b.Fatal("queue drained early")
		}
	}
}

// TestTypedEventSchedulingAllocs pins the tentpole property: scheduling and
// dispatching typed events allocates nothing in steady state (after the
// ring buckets and heap have grown to working size).
func TestTypedEventSchedulingAllocs(t *testing.T) {
	e := NewEngine()
	h := &handler{e: e, N: 1 << 62, d: 3}
	// Warm up: grow bucket slices and the heap to steady-state capacity.
	for i := 0; i < 64; i++ {
		e.AfterEvent(uint64(1+i%7), h, 0, 0, nil)
		e.AfterEvent(100+uint64(i), h, 0, 0, nil)
	}
	for e.Pending() > 0 && e.Executed() < 4096 {
		e.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.AfterEvent(2, h, 0, 0, nil)
		e.AfterEvent(200, h, 0, 0, nil)
		e.Step()
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("typed-event schedule+dispatch allocates %.1f per op, want 0", allocs)
	}
}
