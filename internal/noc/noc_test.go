package noc

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

func newNet(cfg Config) (*sim.Engine, *Network) {
	e := sim.NewEngine()
	return e, New(e, topology.NewMesh(4, 8), cfg)
}

func TestSendLatencyScalesWithHops(t *testing.T) {
	e, n := newNet(DefaultConfig())
	var t1, t2 uint64
	n.Send(0, 1, ControlFlits, func() { t1 = e.Now() })
	n.Send(0, 3, ControlFlits, func() { t2 = e.Now() })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if t1 == 0 || t2 == 0 {
		t.Fatal("messages not delivered")
	}
	if t2 <= t1 {
		t.Fatalf("3-hop (%d) should take longer than 1-hop (%d)", t2, t1)
	}
}

func TestDataSlowerThanControl(t *testing.T) {
	e, n := newNet(DefaultConfig())
	var tc, td uint64
	n.Send(0, 31, ControlFlits, func() { tc = e.Now() })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	e2, n2 := newNet(DefaultConfig())
	n2.Send(0, 31, DataFlits, func() { td = e2.Now() })
	if err := e2.Run(0); err != nil {
		t.Fatal(err)
	}
	if td != tc+DataFlits-ControlFlits {
		t.Fatalf("data latency %d, control %d: want tail-flit delta %d", td, tc, DataFlits-ControlFlits)
	}
}

func TestLinkContentionSerializes(t *testing.T) {
	e, n := newNet(DefaultConfig())
	var arr []uint64
	// Two data messages over the same first link at the same cycle.
	n.Send(0, 3, DataFlits, func() { arr = append(arr, e.Now()) })
	n.Send(0, 3, DataFlits, func() { arr = append(arr, e.Now()) })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(arr) != 2 {
		t.Fatalf("got %d deliveries", len(arr))
	}
	if arr[1] < arr[0]+DataFlits {
		t.Fatalf("second message arrived at %d, first at %d: no serialization", arr[1], arr[0])
	}
	if n.QueueWait == 0 {
		t.Fatal("expected queueing delay recorded")
	}
}

func TestPerfectModeNoContention(t *testing.T) {
	e, n := newNet(Config{LinkLatency: 1, RouterDelay: 1, LocalLatency: 1, Perfect: true})
	var arr []uint64
	n.Send(0, 3, DataFlits, func() { arr = append(arr, e.Now()) })
	n.Send(0, 3, DataFlits, func() { arr = append(arr, e.Now()) })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if arr[0] != arr[1] {
		t.Fatalf("perfect mode should deliver both at once: %v", arr)
	}
	if n.QueueWait != 0 {
		t.Fatal("perfect mode recorded queue wait")
	}
}

func TestLocalDelivery(t *testing.T) {
	e, n := newNet(DefaultConfig())
	var at uint64
	n.Send(7, 7, DataFlits, func() { at = e.Now() })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if at != 1 {
		t.Fatalf("local delivery at %d, want 1", at)
	}
}

func TestDisjointPathsDoNotInterfere(t *testing.T) {
	e, n := newNet(DefaultConfig())
	var a, b uint64
	m := topology.NewMesh(4, 8)
	// Route 0->1 (top-left) and route in the bottom row share no links.
	bottomL := m.Tile(0, 7)
	bottomR := m.Tile(1, 7)
	n.Send(0, 1, DataFlits, func() { a = e.Now() })
	n.Send(bottomL, bottomR, DataFlits, func() { b = e.Now() })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("disjoint paths interfered: %d vs %d", a, b)
	}
}

func TestMessageCounting(t *testing.T) {
	e, n := newNet(DefaultConfig())
	for i := 0; i < 5; i++ {
		n.Send(0, 2, ControlFlits, func() {})
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if n.Messages != 5 {
		t.Fatalf("Messages = %d, want 5", n.Messages)
	}
	if n.FlitHops != 5*2*ControlFlits {
		t.Fatalf("FlitHops = %d", n.FlitHops)
	}
}

func TestNoCTracerHooks(t *testing.T) {
	tr := trace.New(64, map[trace.Category]bool{trace.CatNoC: true})
	e, n := newNet(DefaultConfig())
	n.Tracer = tr
	tr.Now = e.Now
	// Two data messages over the same route: the second serializes behind
	// the first, so the trace must show enqueues, one stall, and dequeues.
	n.Send(0, 3, DataFlits, func() {})
	n.Send(0, 3, DataFlits, func() {})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	var enq, stall, deq int
	for _, ev := range tr.Events() {
		if ev.Cat != trace.CatNoC {
			t.Fatalf("unexpected category %v", ev.Cat)
		}
		switch {
		case strings.HasPrefix(ev.What, "enqueue"):
			enq++
		case strings.HasPrefix(ev.What, "serialization stall"):
			stall++
		case strings.HasPrefix(ev.What, "dequeue"):
			deq++
		}
	}
	if enq != 2 || deq != 2 || stall != 1 {
		t.Fatalf("enqueue=%d stall=%d dequeue=%d, want 2/1/2", enq, stall, deq)
	}
}

func TestNoCTracerDisabledByCategory(t *testing.T) {
	// A tracer without CatNoC enabled must record nothing from the NoC.
	tr := trace.New(64, map[trace.Category]bool{trace.CatProto: true})
	e, n := newNet(DefaultConfig())
	n.Tracer = tr
	tr.Now = e.Now
	n.Send(0, 3, DataFlits, func() {})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if tr.Total() != 0 {
		t.Fatalf("recorded %d events with CatNoC disabled", tr.Total())
	}
}

func TestOnDemandRoutingBigMachine(t *testing.T) {
	// A 1024-tile mesh routes every message on demand like any other shape:
	// corner to corner is 62 hops at 2 cycles each.
	e := sim.NewEngine()
	big := New(e, topology.NewMesh(32, 32), DefaultConfig())
	var at uint64
	big.Send(0, 1023, ControlFlits, func() { at = e.Now() })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if at != 124 {
		t.Fatalf("corner-to-corner delivery at %d, want 62 hops (124 cycles)", at)
	}
	// The same route walked twice must contend on its shared links.
	e2 := sim.NewEngine()
	big2 := New(e2, topology.NewMesh(32, 32), DefaultConfig())
	var arr []uint64
	big2.Send(0, 3, DataFlits, func() { arr = append(arr, e2.Now()) })
	big2.Send(0, 3, DataFlits, func() { arr = append(arr, e2.Now()) })
	if err := e2.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(arr) != 2 || arr[1] <= arr[0] {
		t.Fatalf("on-demand contention wrong: %v", arr)
	}
}

func TestCMeshSameRouterUsesLocalLatency(t *testing.T) {
	e := sim.NewEngine()
	c := topology.NewCMesh(4, 4, 4)
	n := New(e, c, DefaultConfig())
	var at uint64
	n.Send(0, 3, ControlFlits, func() { at = e.Now() }) // same router
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if at != 1 {
		t.Fatalf("same-router delivery at %d, want LocalLatency 1", at)
	}
}

func TestTorusNetworkDelivers(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, topology.NewTorus(4, 8), DefaultConfig())
	var at uint64
	// Wraparound neighbor: one hop on the torus, 3 on a mesh.
	n.Send(0, 3, ControlFlits, func() { at = e.Now() })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if at != 2 {
		t.Fatalf("torus wraparound delivery at %d, want one hop (2 cycles)", at)
	}
}
