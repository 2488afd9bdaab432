// Package noc models the on-chip interconnect of the tiled CMP. The shape
// is pluggable (topology.Topology): the paper's Table I machine is a 4x8
// mesh with X-Y routing, and the scaled machines (DESIGN.md §13) run the
// same model over larger meshes, tori, and concentrated meshes up to 1024
// tiles. Flits are 16 bytes over 1-cycle links at 1 flit/cycle (Table I).
//
// Rather than simulating router microarchitecture cycle by cycle, the model
// reserves each directed link along a message's path in order: a message
// occupies a link for (link latency + serialization) cycles and a later
// message over the same link queues behind it. This captures the three NoC
// effects the evaluation depends on — hop latency, serialization of multi-
// flit data messages, and hot-link contention — at a small fraction of the
// cost of a flit-level model, and preserves per-link FIFO ordering.
package noc

import (
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Flit and message sizing from Table I: 16-byte flits; a 64-byte data
// message is 5 flits (header + 4 data), control messages are 1 flit.
const (
	ControlFlits = 1
	DataFlits    = 5
)

// Config holds the NoC timing parameters.
type Config struct {
	LinkLatency  uint64 // cycles per hop (Table I: 1)
	RouterDelay  uint64 // per-hop router pipeline delay
	LocalLatency uint64 // latency for a tile talking to itself (and, on a
	// concentrated mesh, to the other tiles of its router)
	// Perfect disables contention and serialization: every message takes
	// hops*(LinkLatency+RouterDelay) cycles. Used by the NoC ablation.
	Perfect bool
}

// DefaultConfig mirrors Table I.
func DefaultConfig() Config {
	return Config{LinkLatency: 1, RouterDelay: 1, LocalLatency: 1}
}

// Network delivers messages between tiles of a topology.
type Network struct {
	engine *sim.Engine
	topo   topology.Topology
	cfg    Config

	// busyUntil[id] is the cycle at which the directed link with dense id
	// id (topology.linkID: router*4 + port) becomes free. A flat slice
	// rather than a map keyed by topology.Link: the lookup runs once per
	// link per message on the hottest path in the simulator, and hashing
	// a 16-byte struct key dominated whole-run profiles. Four entries per
	// tile is 8 KiB at 256 tiles and 32 KiB at the 1024-tile ceiling.
	busyUntil []uint64

	// Tracer, when non-nil, records CatNoC events: link enqueue,
	// serialization stalls, and scheduled delivery.
	Tracer *trace.Tracer

	// Stats.
	Messages  uint64
	FlitHops  uint64
	QueueWait uint64
}

// New creates a network over the given topology.
func New(engine *sim.Engine, topo topology.Topology, cfg Config) *Network {
	return &Network{
		engine:    engine,
		topo:      topo,
		cfg:       cfg,
		busyUntil: make([]uint64, 4*topo.Tiles()),
	}
}

// Topo returns the underlying topology.
func (n *Network) Topo() topology.Topology { return n.topo }

// Send schedules deliver to run when a message of the given flit count
// arrives at dst, reserving link bandwidth along the route.
func (n *Network) Send(src, dst int, flits int, deliver func()) {
	//lockiller:alloc-ok closure-delivery API for tests and the NoC layer benchmark; protocol traffic uses SendEvent
	n.engine.At(n.arrival(src, dst, flits), deliver)
}

// SendEvent is the allocation-free variant of Send: instead of a delivery
// closure it schedules a typed engine event (h.OnEvent(kind, a, p)) at the
// arrival cycle. Hot protocol paths use it to deliver pooled messages
// without a per-hop closure allocation.
func (n *Network) SendEvent(src, dst, flits int, h sim.Handler, kind uint8, a uint64, p any) {
	n.engine.AtEvent(n.arrival(src, dst, flits), h, kind, a, p)
}

// arrival reserves link bandwidth along the route and returns the absolute
// cycle at which the message's tail flit reaches dst.
func (n *Network) arrival(src, dst, flits int) uint64 {
	n.Messages++
	now := n.engine.Now()
	if src == dst {
		return now + maxU64(n.cfg.LocalLatency, 1)
	}
	rt := n.topo.Route(src, dst)
	hops := rt.Hops()
	if hops == 0 {
		// Distinct tiles on the same router (concentrated mesh): the local
		// crossbar, like a tile talking to itself. Never zero cycles.
		return now + maxU64(n.cfg.LocalLatency, 1)
	}
	n.FlitHops += uint64(flits * hops)
	if n.cfg.Perfect {
		lat := uint64(hops) * (n.cfg.LinkLatency + n.cfg.RouterDelay)
		return now + maxU64(lat, 1)
	}
	if n.Tracer.Enabled(trace.CatNoC) {
		n.Tracer.Emitf(src, trace.CatNoC, 0, "enqueue %d->%d flits=%d hops=%d", src, dst, flits, hops)
	}
	// Head-flit arrival time threads through each link in order; the link
	// is then occupied for the serialization time of the whole message.
	// The head spends hop cycles per link plus its waits, so the waits sum
	// to what is left of the arrival time.
	hop := n.cfg.LinkLatency + n.cfg.RouterDelay
	busy := n.busyUntil
	t := now
	for _, run := range rt.Runs() {
		for li, k, stride := run.First(), run.Count(), run.Stride(); k > 0; li, k = li+stride, k-1 {
			start := maxU64(t, busy[li])
			busy[li] = start + uint64(flits)
			t = start + hop
		}
	}
	stalled := t - now - uint64(hops)*hop
	n.QueueWait += stalled
	// Tail flit arrives (flits-1) cycles after the head.
	t += uint64(flits - 1)
	if n.Tracer.Enabled(trace.CatNoC) {
		if stalled > 0 {
			n.Tracer.Emitf(src, trace.CatNoC, 0, "serialization stall %d->%d wait=%d", src, dst, stalled)
		}
		n.Tracer.Emitf(dst, trace.CatNoC, 0, "dequeue %d->%d at=%d", src, dst, t)
	}
	return t
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
