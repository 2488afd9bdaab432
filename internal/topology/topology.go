// Package topology models the tiled CMP's interconnect shapes and their
// deterministic routing. The paper's Table I machine is a 4x8 mesh (32
// tiles, one core + one L1 + one LLC bank per tile); the scaling work
// (DESIGN.md §13) generalizes the layer behind the Topology interface so
// the simulated machine can grow to 64–1024 tiles on a larger mesh, a
// torus (wraparound X-Y), or a concentrated mesh (several tiles per
// router) without the NoC caring which shape is underneath.
package topology

import (
	"fmt"
	"math/bits"
)

// Link identifies a directed link between two adjacent tiles (for the
// concentrated mesh: between the representative tiles of adjacent routers).
type Link struct{ From, To int }

// linkID returns the dense id of the link leaving router along axis
// (0 = x, 1 = y) in direction dir (+1/-1). Routes are sequences of these
// ids: the link leaving router r through port p (0..3 = +x, -x, +y, -y)
// has id r*4 + p, so every id is below 4*Tiles() and the NoC can key
// per-link state with a flat 4-per-router slice. Consecutive links of a
// straight stretch differ by a constant stride (a Run): ±4 along x, ±4W
// along y on a W-wide grid. On every link a route
// can use, the id and the (from, to) pair it decodes to (Topology.Link)
// determine each other. The one degenerate case is a torus ring of length
// 2, where +1 and -1 reach the same neighbour: ringDist breaks that tie
// toward +1, so the -x and -y ports are never used there.
func linkID(router, axis, dir int) int32 {
	return int32(router*4 + axis*2 + (1-dir)/2)
}

// decodeLink splits a dense link id into its router, axis (0 = x, 1 = y)
// and direction (+1/-1).
func decodeLink(id int32) (router, axis, dir int) {
	port := int(id % 4)
	return int(id / 4), port / 2, 1 - 2*(port%2)
}

// Run is one straight stretch of a route: Count links with the dense ids
// First, First+Stride, ..., in order. A run may be empty (Count 0). It is
// packed into one word, First in the low 32 bits and then Stride and
// Count in 16 bits each, so that a Route comes back from the interface
// call in registers: a route in memory would be written field by field
// and read back in wider words, which stalls the store forwarding on
// every message. maxSide keeps every stride and count in 16 bits.
type Run uint64

// First, Stride and Count unpack a Run.
func (r Run) First() int32  { return int32(uint32(r)) }
func (r Run) Stride() int32 { return int32(int16(r >> 32)) }
func (r Run) Count() int    { return int(uint16(r >> 48)) }

// maxSide bounds a grid's width and height: a stride of 4*maxSide and a
// count of maxSide fit a Run's 16-bit fields.
const maxSide = 1 << 12

// Route is a route as four runs: the X stretch (X, then XWrap) and the Y
// stretch (Y, then YWrap). A stretch that crosses a torus ring's
// wraparound link splits there into its two runs; otherwise its wrap run
// is empty. Routing is the same computation for every message, so a route
// is a small value the NoC walks in place; nothing is stored or buffered.
type Route struct{ X, XWrap, Y, YWrap Run }

// Runs returns the route's runs in the order the route traverses them.
func (rt Route) Runs() [4]Run { return [4]Run{rt.X, rt.XWrap, rt.Y, rt.YWrap} }

// Hops returns the number of links the route traverses.
func (rt Route) Hops() int { return rt.X.Count() + rt.XWrap.Count() + rt.Y.Count() + rt.YWrap.Count() }

// run returns the stretch of |n| links that leaves router r along axis
// (0 = x, 1 = y) in the direction of n's sign, on a grid whose routers
// along that axis are step apart (1 along x, the grid width along y). It
// has no branches: whether a route steps up or down an axis is data, and
// as a branch it would mispredict on every other message.
func run(axis, r, n, step int) Run {
	neg := n >> (bits.UintSize - 1) // -1 stepping down the axis, else 0
	dir := 1 + 2*neg
	return Run(uint64(uint32(linkID(r, axis, dir))) |
		uint64(uint16(4*step*dir))<<32 | uint64((n^neg)-neg)<<48)
}

// divmod returns v mod w and v / w for a tile or router v of a w-wide
// grid: its column and row. The NoC routes every message through here,
// and a 32-bit unsigned division costs a fraction of a signed 64-bit one.
func divmod(v, w int) (mod, div int) {
	q := int(uint32(v) / uint32(w))
	return v - q*w, q
}

// checkSide panics unless a w x h grid is within maxSide.
func checkSide(kind string, w, h int) {
	if w <= 0 || h <= 0 || w > maxSide || h > maxSide {
		panic(fmt.Sprintf("topology: invalid %s %dx%d (sides 1..%d)", kind, w, h, maxSide))
	}
}

// Topology is the interconnect shape the NoC and the machine layer consume.
// Every implementation routes deterministically: the same (src, dst) pair
// always takes the same path, which the bit-for-bit replay guarantee
// depends on.
type Topology interface {
	// Tiles returns the number of tiles.
	Tiles() int
	// Hops returns the number of links a message from src to dst
	// traverses: Route(src, dst).Hops().
	Hops(src, dst int) int
	// Route returns the links traversed from src to dst, in order, as
	// runs of dense link ids. It has no runs when src == dst or
	// (concentrated mesh) the two tiles share a router.
	Route(src, dst int) Route
	// Link decodes a dense link id into the tiles it joins.
	Link(id int32) Link
	// NumLinks returns the number of distinct directed links, used to
	// normalize link-occupancy telemetry.
	NumLinks() int
	// Name identifies the shape ("mesh", "torus", "cmesh").
	Name() string
}

// New builds a topology by name. w and h are the router grid; conc is the
// tiles-per-router concentration (cmesh only; ignored elsewhere).
func New(kind string, w, h, conc int) (Topology, error) {
	switch kind {
	case "", "mesh":
		return NewMesh(w, h), nil
	case "torus":
		return NewTorus(w, h), nil
	case "cmesh":
		return NewCMesh(w, h, conc), nil
	}
	return nil, fmt.Errorf("topology: unknown kind %q (want mesh, torus, or cmesh)", kind)
}

// --- Mesh ------------------------------------------------------------------

// Mesh is a W x H grid of tiles numbered row-major: tile = y*W + x.
type Mesh struct{ W, H int }

// NewMesh validates the dimensions and returns the mesh.
func NewMesh(w, h int) Mesh {
	checkSide("mesh", w, h)
	return Mesh{W: w, H: h}
}

// Name implements Topology.
func (m Mesh) Name() string { return "mesh" }

// Tiles returns the number of tiles.
func (m Mesh) Tiles() int { return m.W * m.H }

// XY returns the coordinates of a tile.
func (m Mesh) XY(tile int) (x, y int) { return divmod(tile, m.W) }

// Tile returns the tile at coordinates (x, y).
func (m Mesh) Tile(x, y int) int { return y*m.W + x }

// Hops returns the Manhattan distance between two tiles, which X-Y routing
// always achieves (it is minimal and deadlock-free on a mesh).
func (m Mesh) Hops(src, dst int) int {
	return m.Route(src, dst).Hops()
}

// NumLinks returns the number of distinct directed links: W*(H-1) vertical
// and H*(W-1) horizontal channels, each bidirectional.
func (m Mesh) NumLinks() int { return 2 * (m.W*(m.H-1) + m.H*(m.W-1)) }

// Route implements Topology: dimension-ordered X-then-Y routing, along
// src's row to dst's column, then along that column. (CMesh.Route is the
// same over its router grid; the NoC calls it once per message, so it is
// written out rather than shared through a call.)
func (m Mesh) Route(src, dst int) Route {
	sx, sy := m.XY(src)
	dx, dy := m.XY(dst)
	return Route{X: run(0, src, dx-sx, 1), Y: run(1, sy*m.W+dx, dy-sy, m.W)}
}

// Link implements Topology.
func (m Mesh) Link(id int32) Link {
	from, axis, dir := decodeLink(id)
	return Link{From: from, To: gridStep(from, m.W, axis, dir)}
}

// --- Torus -----------------------------------------------------------------

// Torus is a W x H grid with wraparound links in both dimensions, numbered
// row-major like the mesh. Routing is dimension-ordered (X then Y) taking
// the shorter way around each ring; a dead-even tie (ring length even,
// distance exactly half the ring) always resolves toward increasing
// coordinate — the deterministic dateline rule. The link-reservation NoC
// model has no credit-based buffering and therefore cannot deadlock; the
// dateline convention exists so the modeled routes match a deadlock-free
// two-VC dateline implementation and, more importantly here, so every
// (src, dst) pair routes identically on every run (DESIGN.md §13).
type Torus struct{ W, H int }

// NewTorus validates the dimensions and returns the torus.
func NewTorus(w, h int) Torus {
	checkSide("torus", w, h)
	return Torus{W: w, H: h}
}

// Name implements Topology.
func (t Torus) Name() string { return "torus" }

// Tiles returns the number of tiles.
func (t Torus) Tiles() int { return t.W * t.H }

// XY returns the coordinates of a tile.
func (t Torus) XY(tile int) (x, y int) { return divmod(tile, t.W) }

// Tile returns the tile at coordinates (x, y).
func (t Torus) Tile(x, y int) int { return y*t.W + x }

// ringDist returns the hop count and step direction (+1/-1) for the
// shorter way around a ring of length n from a to b, resolving dead-even
// ties toward +1 (the dateline rule).
func ringDist(a, b, n int) (dist, dir int) {
	if a == b {
		return 0, 1
	}
	fwd := ((b-a)%n + n) % n
	back := n - fwd
	if fwd <= back {
		return fwd, 1
	}
	return back, -1
}

// Hops returns the wraparound Manhattan distance, which dimension-ordered
// shortest-way routing achieves.
func (t Torus) Hops(src, dst int) int {
	return t.Route(src, dst).Hops()
}

// NumLinks returns the number of distinct directed links. A ring of length
// L contributes 2L directed links (L each way); length 2 degenerates to one
// bidirectional channel pair (both directions reach the same neighbour, and
// routes only use the +1 one), and length 1 contributes none.
func (t Torus) NumLinks() int { return t.H*ringLinks(t.W) + t.W*ringLinks(t.H) }

func ringLinks(l int) int {
	switch {
	case l < 2:
		return 0
	case l == 2:
		return 2
	}
	return 2 * l
}

// Route implements Topology: X then Y, each the shorter way around.
func (t Torus) Route(src, dst int) (rt Route) {
	x, y := t.XY(src)
	dx, dy := t.XY(dst)
	rt.X, rt.XWrap = ring(0, x, dx, t.W, y*t.W, 1)
	rt.Y, rt.YWrap = ring(1, y, dy, t.H, dx, t.W)
	return rt
}

// ring returns the two runs of the shorter way from position p to q
// around a ring of n routers along axis, where position i is router
// base + i*step: the links leaving p up to the wraparound link, then the
// rest.
func ring(axis, p, q, n, base, step int) (Run, Run) {
	h, dir := ringDist(p, q, n)
	first, wrapTo := n-p, 0 // links leaving positions p..n-1, then from 0
	if dir < 0 {
		first, wrapTo = p+1, n-1 // positions p..0, then from n-1
	}
	first = min(first, h)
	return run(axis, base+p*step, first*dir, step), run(axis, base+wrapTo*step, (h-first)*dir, step)
}

// Link implements Topology.
func (t Torus) Link(id int32) Link {
	from, axis, dir := decodeLink(id)
	x, y := t.XY(from)
	if axis == 0 {
		x = wrap(x+dir, t.W)
	} else {
		y = wrap(y+dir, t.H)
	}
	return Link{From: from, To: t.Tile(x, y)}
}

// wrap reduces a coordinate one step off a ring of length n back onto it.
func wrap(v, n int) int { return (v%n + n) % n }

// --- Concentrated mesh -----------------------------------------------------

// CMesh is a concentrated mesh: a W x H router grid with Conc tiles sharing
// each router through a local crossbar. Tiles are numbered so tile t
// attaches to router t/Conc; inter-router links are identified by the
// routers (Link names them by representative tiles, router r's first tile
// r*Conc), so all tiles of a router contend for the same physical
// channels. Same-router messages take the crossbar (an empty route; the
// NoC charges its local latency), which is what makes concentration
// attractive at high tile counts — a 256-tile machine needs only an 8x8
// router grid at Conc=4.
type CMesh struct{ W, H, Conc int }

// NewCMesh validates the dimensions and returns the concentrated mesh.
func NewCMesh(w, h, conc int) CMesh {
	checkSide("cmesh", w, h)
	if conc <= 0 {
		panic(fmt.Sprintf("topology: invalid cmesh concentration %d", conc))
	}
	return CMesh{W: w, H: h, Conc: conc}
}

// Name implements Topology.
func (c CMesh) Name() string { return "cmesh" }

// Tiles returns the number of tiles.
func (c CMesh) Tiles() int { return c.W * c.H * c.Conc }

// Router returns the router a tile attaches to.
func (c CMesh) Router(tile int) int { return int(uint32(tile) / uint32(c.Conc)) }

// repTile returns the representative tile of a router (link identities).
func (c CMesh) repTile(router int) int { return router * c.Conc }

// routerXY returns a router's grid coordinates.
func (c CMesh) routerXY(router int) (x, y int) { return divmod(router, c.W) }

// Hops returns the router-grid Manhattan distance (0 for same-router tiles).
func (c CMesh) Hops(src, dst int) int {
	return c.Route(src, dst).Hops()
}

// NumLinks returns the router grid's distinct directed links.
func (c CMesh) NumLinks() int { return 2 * (c.W*(c.H-1) + c.H*(c.W-1)) }

// Route implements Topology: X-Y over the router grid.
func (c CMesh) Route(src, dst int) Route {
	r := c.Router(src)
	sx, sy := c.routerXY(r)
	dx, dy := c.routerXY(c.Router(dst))
	return Route{X: run(0, r, dx-sx, 1), Y: run(1, sy*c.W+dx, dy-sy, c.W)}
}

// Link implements Topology: the link between two routers, named by their
// representative tiles.
func (c CMesh) Link(id int32) Link {
	from, axis, dir := decodeLink(id)
	return Link{From: c.repTile(from), To: c.repTile(gridStep(from, c.W, axis, dir))}
}

// gridStep returns the router one hop from router r of a w-wide grid,
// numbered row-major, along axis (0 = x, 1 = y) in direction dir.
func gridStep(r, w, axis, dir int) int {
	if axis == 0 {
		return r + dir
	}
	return r + dir*w
}
