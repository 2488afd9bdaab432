// Package sim provides the discrete-event simulation kernel used by every
// other component of the LockillerTM reproduction.
//
// The kernel is a single-threaded event loop: components schedule callbacks
// at absolute or relative cycle times and the engine executes them in
// non-decreasing time order. Events scheduled for the same cycle run in
// scheduling order (a monotonically increasing sequence number breaks ties),
// which makes every simulation bit-for-bit reproducible for a given seed.
//
// The scheduler is a two-tier calendar queue tuned for the delay mix the
// coherence and CPU models generate:
//
//   - a near-future bucket ring of ringSize one-cycle buckets absorbs the
//     dominant small-delay events (cache hit latencies, directory decision
//     delays, single NoC hops): scheduling is an O(1) slice append and
//     dispatch pops in FIFO order, which is exactly (when, seq) order;
//   - everything at least ringSize cycles out (memory latencies, retry
//     backoffs, watchdog-scale timeouts) goes to a hand-specialized 4-ary
//     min-heap over a flat []event slice — no container/heap interface
//     boxing, no per-Push allocation.
//
// Because simulated time is monotonic, for any cycle t every heap insertion
// with when==t happens strictly before every ring insertion with when==t
// (the former requires now <= t-ringSize, the latter now > t-ringSize), so
// popping the heap whenever its top is <= the earliest ring bucket preserves
// the global (when, seq) order exactly. The two-tier scheduler is therefore
// bit-for-bit identical in execution order to a single ordered queue.
//
// Events are plain values in flat slices. The typed-event API (AtEvent /
// AfterEvent) lets hot paths schedule a Handler callback with two payload
// words instead of allocating a fresh closure per event; the closure API
// (At / After) remains for cold paths and tests.
//
// A tick (AfterTick) is the cheapest schedulable item: a payload-free
// uint32 delivered to the engine's one TickReceiver (SetTick), ring-only
// (d < ringSize). Each bucket keeps its ticks in a side list beside its
// events. A tick records len(bucket.ev) when it is scheduled and runs
// after ev[at-1] and before ev[at] — exactly the (when, seq) slot a full
// event scheduled at that moment would take — so switching a callback
// between an event and a tick never changes execution order. Heap events
// of the tick's cycle still run first, for the same reason they beat ring
// events. Ticks count as executed events, are visible to PeekNext, and
// run inside the probe bracket like any other dispatch.
package sim

import (
	"errors"
	"fmt"

	"repro/internal/obs"
)

// ErrLimitReached is returned by Run when the cycle limit expires before the
// event queue drains. It usually indicates a livelock or deadlock in the
// simulated machine and is treated as fatal by the harness.
var ErrLimitReached = errors.New("sim: cycle limit reached with events still pending")

// Handler receives typed events scheduled with AtEvent/AfterEvent. kind
// discriminates between the handler's event flavors; a and p are payload
// words chosen so that neither boxes (uint64 goes in a, pointers go in p).
type Handler interface {
	OnEvent(kind uint8, a uint64, p any)
}

// TickReceiver receives the ticks scheduled with AfterTick. The id is the
// scheduler's own encoding; the engine only carries it.
type TickReceiver interface {
	OnTick(id uint32)
}

// event is one scheduled callback: either a closure (fn != nil) or a typed
// handler event.
type event struct {
	when uint64
	seq  uint64
	fn   func()
	h    Handler
	p    any
	a    uint64
	kind uint8
}

const (
	ringBits = 6
	// ringSize is the bucket-ring horizon: events fewer than ringSize cycles
	// out go to the ring, the rest to the heap. 64 covers every fixed
	// latency of Table I except main memory (100 cycles).
	ringSize = 1 << ringBits
	ringMask = ringSize - 1
)

// TickHorizon bounds AfterTick delays: ticks live only in the bucket ring.
const TickHorizon = ringSize

// TickKind is the event kind ticks report to the probe, so a self-profile
// lists them apart from their receiver class's typed events.
const TickKind uint8 = 0xFF

// bucket holds the events of one cycle in FIFO (= seq) order, plus the
// ticks of that cycle. head and thead avoid shifting on pop; both slices
// are reset (capacity retained) once both are drained, so a tick's at
// index stays valid while any tick of the cycle is pending.
type bucket struct {
	ev    []event
	head  int
	ticks []tick
	thead int
}

// tick is one pending AfterTick: it runs once the bucket's events before
// index at have run, and before ev[at].
type tick struct {
	at uint32
	id uint32
}

// empty reports whether the bucket has nothing left to run.
func (b *bucket) empty() bool { return b.head == len(b.ev) && b.thead == len(b.ticks) }

// tickNext reports whether the bucket's next item is a tick.
func (b *bucket) tickNext() bool {
	return b.thead < len(b.ticks) && int(b.ticks[b.thead].at) <= b.head
}

// resetIfEmpty rewinds a drained bucket, keeping both slices' capacity.
func (b *bucket) resetIfEmpty() {
	if b.empty() {
		b.ev, b.head = b.ev[:0], 0
		b.ticks, b.thead = b.ticks[:0], 0
	}
}

// equeue is the two-tier calendar queue: the near-future bucket ring plus
// the far-future 4-ary min-heap. Time (now) lives in the Engine and is
// passed in.
type equeue struct {
	ring      [ringSize]bucket
	ringCount int
	// ringMin is a lower bound on the cycle of the earliest ring event,
	// meaningful only while ringCount > 0. Scheduling tightens it eagerly;
	// popping leaves it stale-low and peekRing repairs it lazily by scanning
	// forward, so the ring head is found in amortized O(1) instead of an
	// O(ringSize) scan per query.
	ringMin uint64
	heap    []event // 4-ary min-heap ordered by (when, seq)
}

// Engine is the discrete-event scheduler. The zero value is ready to use.
type Engine struct {
	now      uint64
	seq      uint64
	executed uint64

	q equeue

	// tickRecv receives every tick; tickClass is its probe class.
	tickRecv  TickReceiver
	tickClass string

	// probe, when non-nil, observes event dispatch on the host clock
	// (internal/obs). Every callsite is nil-guarded (enforced by the
	// hostclock lint rule), so the disabled cost is one pointer test per
	// event. Probe methods run on the engine's one goroutine, so the probe
	// needs no locking (DESIGN.md §14).
	probe obs.EngineProbe

	// Watchdog state: the engine aborts a Run if no progress callback fires
	// within Watchdog cycles. Components that make forward progress (e.g. a
	// core committing a transaction) call Progress to pat the watchdog.
	Watchdog     uint64
	lastProgress uint64
}

// NewEngine returns an engine with the default watchdog window.
func NewEngine() *Engine {
	return &Engine{Watchdog: 50_000_000}
}

// Now returns the current simulation cycle.
func (e *Engine) Now() uint64 { return e.now }

// Executed returns the number of events executed so far; useful for
// performance reporting and for tests asserting that work happened.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of events and ticks currently queued.
func (e *Engine) Pending() int { return e.q.pending() }

// schedule places ev at absolute cycle t. Scheduling in the past panics: it
// is always a component bug.
func (e *Engine) schedule(t uint64, ev event) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.seq++
	ev.when, ev.seq = t, e.seq
	e.q.push(e.now, ev)
}

// At schedules fn to run at absolute cycle t.
func (e *Engine) At(t uint64, fn func()) { e.schedule(t, event{fn: fn}) }

// After schedules fn to run d cycles from now.
func (e *Engine) After(d uint64, fn func()) { e.schedule(e.now+d, event{fn: fn}) }

// AtEvent schedules h.OnEvent(kind, a, p) at absolute cycle t without
// allocating: the event is a value in a flat slice and the payload fields
// are stored unboxed.
func (e *Engine) AtEvent(t uint64, h Handler, kind uint8, a uint64, p any) {
	e.schedule(t, event{h: h, kind: kind, a: a, p: p})
}

// AfterEvent schedules h.OnEvent(kind, a, p) d cycles from now.
func (e *Engine) AfterEvent(d uint64, h Handler, kind uint8, a uint64, p any) {
	e.schedule(e.now+d, event{h: h, kind: kind, a: a, p: p})
}

// SetTick installs the receiver of every AfterTick. It must be set before
// the first tick is scheduled. The receiver's ProbeClass, if it has one,
// classes its ticks in self-profiler reports ("tick" otherwise).
func (e *Engine) SetTick(r TickReceiver) {
	e.tickRecv = r
	e.tickClass = "tick"
	if pc, ok := r.(ProbeClasser); ok {
		e.tickClass = pc.ProbeClass()
	}
}

// AfterTick schedules the receiver's OnTick(id) d cycles from now. Ticks
// live only in the bucket ring, so d must be below its horizon; a tick
// takes the same (when, seq) slot an AfterEvent call at this point would
// (see the package comment). The panic message is a constant so that
// AfterTick stays within the inlining budget of its hot callers.
func (e *Engine) AfterTick(d uint64, id uint32) {
	if d >= TickHorizon {
		panic("sim: AfterTick at or beyond the tick horizon")
	}
	e.q.pushTick(e.now+d, id)
}

// Progress informs the watchdog that the simulated machine made forward
// progress (e.g. a transaction committed or a section finished).
func (e *Engine) Progress() { e.lastProgress = e.now }

// PeekNext returns the cycle of the earliest pending event without removing
// it: the min of the calendar-ring head and the heap root. It is cheap by
// design — the event-fusion fast path (internal/cpu) calls it once per
// inlined operation to prove no event could interleave.
func (e *Engine) PeekNext() (when uint64, ok bool) { return e.q.peek(e.now) }

// AdvanceTo lazily advances simulated time to cycle t without executing an
// event — the engine half of the event-fusion fast path. The caller must
// have established via PeekNext that every pending event fires strictly
// after t; the engine re-checks and panics otherwise, because silently
// passing a pending event would reorder the simulation. (Advancing to
// exactly the next event's cycle is also rejected: an already-queued event
// carries an earlier sequence number than anything the caller would go on
// to do at t, so it must run first.)
func (e *Engine) AdvanceTo(t uint64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: AdvanceTo(%d) behind now %d", t, e.now))
	}
	if next, ok := e.PeekNext(); ok && next <= t {
		panic(fmt.Sprintf("sim: AdvanceTo(%d) would pass the pending event at %d", t, next))
	}
	e.now = t
}

// SetProbe attaches (or, with nil, detaches) the host-side engine probe.
// It must be set before Run and stays fixed for the duration of a run.
func (e *Engine) SetProbe(p obs.EngineProbe) { e.probe = p }

// ProbeClasser lets a Handler name itself in self-profiler reports.
// Handlers that don't implement it are classed "event".
type ProbeClasser interface {
	ProbeClass() string
}

// probeClassOf derives the profiling class of an event: closures have no
// handler to ask, typed events use the handler's ProbeClass when offered.
func probeClassOf(ev *event) string {
	if ev.fn != nil {
		return "closure"
	}
	if pc, ok := ev.h.(ProbeClasser); ok {
		return pc.ProbeClass()
	}
	return "event"
}

// exec runs one popped event's callback.
func (e *Engine) exec(ev *event) {
	if ev.fn != nil {
		ev.fn()
	} else {
		ev.h.OnEvent(ev.kind, ev.a, ev.p)
	}
}

// execObserved is exec with the probe bracket. The class lookup and clock
// reads happen only on the probed path; unprobed runs pay one nil test.
func (e *Engine) execObserved(ev *event) {
	if pr := e.probe; pr != nil {
		pr.EventBegin()
		e.exec(ev)
		pr.EventEnd(probeClassOf(ev), ev.kind)
		return
	}
	e.exec(ev)
}

// execTick runs one tick, with the probe bracket when a probe is set.
func (e *Engine) execTick(id uint32) {
	if pr := e.probe; pr != nil {
		pr.EventBegin()
		e.tickRecv.OnTick(id)
		pr.EventEnd(e.tickClass, TickKind)
		return
	}
	e.tickRecv.OnTick(id)
}

// dispatch removes and runs the earliest pending item, which peek reported
// at cycle t, in (when, seq) order.
//
// Every item in a reachable ring bucket provably has when equal to the
// bucket's scan cycle (see the package comment), so bucket FIFO order, with
// each tick slotted in before ev[at], is (when, seq) order. The heap wins
// ties at equal when because all of its same-cycle events were scheduled —
// and therefore sequenced — before any ring event or tick of that cycle.
func (e *Engine) dispatch(t uint64) {
	e.now = t
	e.executed++
	q := &e.q
	if len(q.heap) > 0 && q.heap[0].when == t {
		ev := q.heapPop()
		e.execObserved(&ev)
		return
	}
	b := &q.ring[t&ringMask]
	q.ringCount--
	if b.tickNext() {
		id := b.ticks[b.thead].id
		b.thead++
		b.resetIfEmpty()
		e.execTick(id)
		return
	}
	ev := b.ev[b.head]
	b.ev[b.head] = event{} // drop references so the GC can reclaim payloads
	b.head++
	b.resetIfEmpty()
	e.execObserved(&ev)
}

// Step executes the next pending event or tick, advancing time. It reports
// whether anything was executed.
func (e *Engine) Step() bool {
	t, ok := e.q.peek(e.now)
	if !ok {
		return false
	}
	e.dispatch(t)
	return true
}

// Run executes events until the queue drains or the cycle limit is exceeded.
// limit==0 means no limit. If the watchdog window elapses without a Progress
// call the run aborts with a diagnostic error.
//
// Once a cycle's first item has run, the rest of the cycle runs without
// another peek: while now is t, an item at cycle t is the heap top or in
// t's ring bucket, which holds nothing but cycle t (see the package
// comment). The checks between dispatches are the ones a peek would have
// led to.
func (e *Engine) Run(limit uint64) error {
	e.lastProgress = e.now
	for {
		t, ok := e.q.peek(e.now)
		if !ok {
			return nil
		}
		if limit != 0 && t > limit {
			return e.limitErr()
		}
		for {
			if e.Watchdog != 0 && e.now-e.lastProgress > e.Watchdog {
				return e.watchdogErr()
			}
			e.dispatch(t)
			if e.now != t || !e.q.pendingAt(t) {
				break // next cycle, or time moved on (AdvanceTo)
			}
		}
	}
}

// pendingAt reports whether an item of cycle t, the current cycle, is
// still queued.
func (q *equeue) pendingAt(t uint64) bool {
	return !q.ring[t&ringMask].empty() || len(q.heap) > 0 && q.heap[0].when == t
}

// limitErr and watchdogErr build the Run failure diagnostics.
func (e *Engine) limitErr() error {
	return fmt.Errorf("%w: now=%d pending=%d", ErrLimitReached, e.now, e.Pending())
}

func (e *Engine) watchdogErr() error {
	return fmt.Errorf("sim: watchdog expired: no progress since cycle %d (now %d, pending %d)",
		e.lastProgress, e.now, e.Pending())
}

// --- equeue operations ----------------------------------------------------

// pending returns the number of queued events and ticks.
func (q *equeue) pending() int { return q.ringCount + len(q.heap) }

// push inserts ev (when and seq already assigned) routing by horizon: ring
// if fewer than ringSize cycles out relative to now, heap otherwise.
func (q *equeue) push(now uint64, ev event) {
	if ev.when-now < ringSize {
		b := &q.ring[ev.when&ringMask]
		b.ev = append(b.ev, ev)
		if q.ringCount == 0 || ev.when < q.ringMin {
			q.ringMin = ev.when
		}
		q.ringCount++
		return
	}
	q.heapPush(ev)
}

// pushTick appends a tick to cycle t's bucket (t fewer than ringSize cycles
// out), after the events the bucket already holds.
func (q *equeue) pushTick(t uint64, id uint32) {
	b := &q.ring[t&ringMask]
	b.ticks = append(b.ticks, tick{at: uint32(len(b.ev)), id: id})
	if q.ringCount == 0 || t < q.ringMin {
		q.ringMin = t
	}
	q.ringCount++
}

// peekRing returns the cycle of the earliest ring event. It starts from the
// cached ringMin lower bound and scans forward over at most the buckets the
// last pop emptied, tightening the bound as a side effect — amortized O(1)
// across a run because ringMin only moves forward between insertions.
func (q *equeue) peekRing(now uint64) (uint64, bool) {
	if q.ringCount == 0 {
		return 0, false
	}
	t := q.ringMin
	if t < now {
		// The bound predates a lazy time advance; every pending event is at
		// or after now, so the scan can start there. (Starting below now
		// would misread a bucket refilled for cycle t+ringSize.)
		t = now
	}
	for end := now + ringSize; t < end; t++ {
		if b := &q.ring[t&ringMask]; !b.empty() {
			q.ringMin = t
			return t, true
		}
	}
	panic("sim: ring accounting corrupted")
}

// peek returns the cycle of the queue's earliest event without removing it:
// the min of the ring head and the heap root.
func (q *equeue) peek(now uint64) (when uint64, ok bool) {
	rt, rok := q.peekRing(now)
	if len(q.heap) > 0 && (!rok || q.heap[0].when <= rt) {
		return q.heap[0].when, true
	}
	return rt, rok
}

// --- 4-ary min-heap over a flat []event slice ---------------------------

// less orders events by (when, seq).
func less(a, b *event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (q *equeue) heapPush(ev event) {
	q.heap = append(q.heap, ev)
	h := q.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !less(&ev, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

func (q *equeue) heapPop() event {
	h := q.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop references so the GC can reclaim payloads
	q.heap = h[:n]
	if n > 0 {
		q.siftDown(last)
	}
	return top
}

// siftDown places ev starting from the root of the (already popped) heap.
func (q *equeue) siftDown(ev event) {
	h := q.heap
	n := len(h)
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if less(&h[j], &h[m]) {
				m = j
			}
		}
		if !less(&h[m], &ev) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = ev
}
