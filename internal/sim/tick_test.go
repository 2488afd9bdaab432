package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// mixRun drives one randomized schedule. Every item, when it runs, logs
// itself with the cycle and spawns up to three more items with random
// delays: d = 0, small ring delays, the last ring cycle, and heap delays.
// With ticks on, every ring-bound item whose id is not a multiple of 3 is
// scheduled with AfterTick; the rest stay typed events (and every
// heap-bound item must be an event). With ticks off, everything is an
// event: the all-events reference run.
type mixRun struct {
	e     *Engine
	rng   *RNG
	ticks bool
	next  uint32
	limit uint32
	log   []string
}

func (r *mixRun) OnEvent(_ uint8, a uint64, _ any) { r.fire(uint32(a)) }
func (r *mixRun) OnTick(id uint32)                 { r.fire(id) }

var mixDelays = [...]uint64{0, 0, 1, 1, 2, 3, 5, 8, 13, ringSize - 1, ringSize, 100}

func (r *mixRun) spawn() {
	if r.next >= r.limit {
		return
	}
	id := r.next
	r.next++
	d := mixDelays[r.rng.Intn(len(mixDelays))]
	if r.ticks && d < ringSize && id%3 != 0 {
		r.e.AfterTick(d, id)
		return
	}
	r.e.AfterEvent(d, r, 0, uint64(id), nil)
}

func (r *mixRun) fire(id uint32) {
	r.log = append(r.log, fmt.Sprintf("%d@%d", id, r.e.Now()))
	for n := r.rng.Intn(4); n > 0; n-- {
		r.spawn()
	}
}

func runMix(seed uint64, ticks bool) (log []string, executed uint64) {
	r := &mixRun{e: NewEngine(), rng: NewRNG(seed), ticks: ticks, limit: 3000}
	r.e.SetTick(r)
	for i := 0; i < 16; i++ {
		r.spawn()
	}
	if err := r.e.Run(0); err != nil {
		panic(err)
	}
	return r.log, r.e.Executed()
}

// TestRunMatchesStep pins Run's drain of a cycle without re-peeking: a
// randomized mix of events and ticks runs in exactly the order of a Step
// loop, which peeks before every item.
func TestRunMatchesStep(t *testing.T) {
	run := func(seed uint64, drive func(*Engine)) []string {
		r := &mixRun{e: NewEngine(), rng: NewRNG(seed), ticks: true, limit: 3000}
		r.e.SetTick(r)
		for i := 0; i < 16; i++ {
			r.spawn()
		}
		drive(r.e)
		return r.log
	}
	for seed := uint64(1); seed <= 20; seed++ {
		want := run(seed, func(e *Engine) {
			for e.Step() {
			}
		})
		got := run(seed, func(e *Engine) {
			if err := e.Run(0); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		})
		if len(want) < 1000 {
			t.Fatalf("seed %d: only %d items ran; the mix is too small to test", seed, len(want))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Run's order differs from the Step loop's (%d vs %d items)", seed, len(got), len(want))
		}
	}
}

// TestRunAfterAdvanceTo covers a cycle left early: an item at cycle 5
// advances time to 6 (as the core's fused ops do) and then schedules into
// the ring slot cycle 5 used, for cycle 69. Run must not take that item
// for one of cycle 5.
func TestRunAfterAdvanceTo(t *testing.T) {
	r := newRecorder()
	r.on[1] = func() {
		r.e.AdvanceTo(6)
		r.e.AfterTick(ringSize-1, 2)
	}
	r.e.AfterTick(5, 1)
	if err := r.e.Run(0); err != nil {
		t.Fatal(err)
	}
	if want := []string{"t1@5", "t2@69"}; !reflect.DeepEqual(r.log, want) {
		t.Fatalf("ran %v, want %v", r.log, want)
	}
}

// TestTicksMatchEventOrder pins the tick slot rule: a randomized mix of
// events and ticks, scheduled from many points into shared cycles
// (including d = 0 and ring/heap ties), executes in exactly the order of
// the same schedule run with events only.
func TestTicksMatchEventOrder(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		want, wantN := runMix(seed, false)
		got, gotN := runMix(seed, true)
		if len(want) < 1000 {
			t.Fatalf("seed %d: only %d items ran; the mix is too small to test", seed, len(want))
		}
		if gotN != wantN || uint64(len(got)) != gotN {
			t.Fatalf("seed %d: executed %d with ticks (%d logged), %d with events only", seed, gotN, len(got), wantN)
		}
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d: item %d ran as %s with ticks, %s with events only", seed, i, got[i], want[i])
				}
			}
		}
	}
}

// recorder logs ticks and closure events by name.
type recorder struct {
	e   *Engine
	log []string
	on  map[uint32]func()
}

func (r *recorder) OnTick(id uint32) {
	r.log = append(r.log, fmt.Sprintf("t%d@%d", id, r.e.Now()))
	if f := r.on[id]; f != nil {
		f()
	}
}

func (r *recorder) event(name string, then func()) func() {
	return func() {
		r.log = append(r.log, fmt.Sprintf("%s@%d", name, r.e.Now()))
		if then != nil {
			then()
		}
	}
}

func newRecorder() *recorder {
	r := &recorder{e: NewEngine(), on: map[uint32]func(){}}
	r.e.SetTick(r)
	return r
}

// TestTickBucketDrainedWithTicksPending covers a bucket whose events are
// all popped while ticks of the same cycle are still pending, and a tick
// that schedules into its own, partly drained cycle: the event it adds
// must run after the ticks already queued, and a tick it adds after that
// event.
func TestTickBucketDrainedWithTicksPending(t *testing.T) {
	r := newRecorder()
	e := r.e
	e.After(5, r.event("A", func() {
		e.AfterTick(0, 1)
		e.AfterTick(0, 2)
	}))
	r.on[1] = func() {
		e.After(0, r.event("B", nil))
		e.AfterTick(0, 3)
		e.AfterTick(1, 4)
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []string{"A@5", "t1@5", "t2@5", "B@5", "t3@5", "t4@6"}
	if !reflect.DeepEqual(r.log, want) {
		t.Fatalf("order = %v, want %v", r.log, want)
	}
	if e.Executed() != 6 || e.Pending() != 0 {
		t.Fatalf("executed %d, pending %d; want 6, 0", e.Executed(), e.Pending())
	}
	// The drained bucket is reusable: a later cycle mapping to it orders
	// from scratch.
	e.AfterTick(TickHorizon-1, 5)
	e.After(TickHorizon-1, r.event("C", nil))
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := r.log[len(r.log)-2:]; !reflect.DeepEqual(got, []string{"t5@69", "C@69"}) {
		t.Fatalf("reused bucket order = %v, want [t5@69 C@69]", got)
	}
}

// TestTickHeapTie: a heap event of a tick's cycle was sequenced before the
// tick, so it runs first.
func TestTickHeapTie(t *testing.T) {
	r := newRecorder()
	e := r.e
	e.At(100, r.event("heap", nil)) // 100 cycles out: heap
	e.At(40, r.event("ring", func() { e.AfterTick(60, 1) }))
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []string{"ring@40", "heap@100", "t1@100"}
	if !reflect.DeepEqual(r.log, want) {
		t.Fatalf("order = %v, want %v", r.log, want)
	}
}

// TestTickOnlyBuckets drives PeekNext, AdvanceTo, Step and Run over a queue
// holding nothing but ticks.
func TestTickOnlyBuckets(t *testing.T) {
	r := newRecorder()
	e := r.e
	e.AfterTick(3, 1)
	e.AfterTick(7, 2)
	e.AfterTick(7, 3)
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", e.Pending())
	}
	if w, ok := e.PeekNext(); !ok || w != 3 {
		t.Fatalf("PeekNext = (%d,%v), want (3,true)", w, ok)
	}
	e.AdvanceTo(2)
	mustPanic(t, "AdvanceTo onto a pending tick", func() { e.AdvanceTo(3) })
	if !e.Step() || e.Now() != 3 || len(r.log) != 1 {
		t.Fatalf("Step ran %v, now %d; want the tick at 3", r.log, e.Now())
	}
	if w, ok := e.PeekNext(); !ok || w != 7 {
		t.Fatalf("PeekNext = (%d,%v), want (7,true)", w, ok)
	}
	e.AdvanceTo(6)
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []string{"t1@3", "t2@7", "t3@7"}
	if !reflect.DeepEqual(r.log, want) {
		t.Fatalf("order = %v, want %v", r.log, want)
	}
	if e.Executed() != 3 || e.Pending() != 0 || e.Step() {
		t.Fatalf("executed %d, pending %d after the drain", e.Executed(), e.Pending())
	}
	if _, ok := e.PeekNext(); ok {
		t.Fatal("PeekNext reported a tick on a drained queue")
	}
	// Run's cycle limit sees ticks too.
	e.AfterTick(10, 4)
	if err := e.Run(e.Now() + 5); err == nil {
		t.Fatal("Run passed its limit with a tick pending")
	}
}

// TestAfterTickHorizonPanics: ticks live only in the ring, so a delay at or
// beyond its horizon is a scheduling bug.
func TestAfterTickHorizonPanics(t *testing.T) {
	r := newRecorder()
	r.e.AdvanceTo(1000)
	r.e.AfterTick(TickHorizon-1, 1)
	for _, d := range []uint64{TickHorizon, TickHorizon + 1, 1 << 40} {
		mustPanic(t, fmt.Sprintf("AfterTick(%d)", d), func() { r.e.AfterTick(d, 2) })
	}
}

// countProbe counts bracketed dispatches by class and kind.
type countProbe struct {
	open bool
	seen map[string]int
}

func (p *countProbe) EventBegin() { p.open = true }
func (p *countProbe) EventEnd(class string, kind uint8) {
	if !p.open {
		panic("EventEnd without EventBegin")
	}
	p.open = false
	p.seen[fmt.Sprintf("%s/%d", class, kind)]++
}

type classedRecorder struct{ *recorder }

func (classedRecorder) ProbeClass() string { return "core" }

// TestTicksProbed: ticks run inside the probe bracket under the receiver's
// probe class and TickKind, so probe counts equal Executed.
func TestTicksProbed(t *testing.T) {
	r := newRecorder()
	e := r.e
	e.SetTick(classedRecorder{r})
	p := &countProbe{seen: map[string]int{}}
	e.SetProbe(p)
	e.AfterTick(1, 1)
	e.After(1, func() {})
	e.AfterTick(2, 2)
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{fmt.Sprintf("core/%d", TickKind): 2, "closure/0": 1}
	if !reflect.DeepEqual(p.seen, want) {
		t.Fatalf("probe saw %v, want %v", p.seen, want)
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}
