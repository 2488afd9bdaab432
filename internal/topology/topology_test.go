package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// routeIDs expands the src->dst route's runs into its dense link ids.
func routeIDs(topo Topology, src, dst int) []int32 {
	var ids []int32
	for _, run := range topo.Route(src, dst).Runs() {
		for k := 0; k < run.Count(); k++ {
			ids = append(ids, run.First()+int32(k)*run.Stride())
		}
	}
	return ids
}

// route decodes the dense link ids of the src->dst route into links.
func route(topo Topology, src, dst int) []Link {
	var r []Link
	for _, id := range routeIDs(topo, src, dst) {
		r = append(r, topo.Link(id))
	}
	return r
}

// refRoute is the hop-by-hop reference router the runs are checked
// against: dimension-ordered X then Y, one link id per step, each the
// shorter way around on a torus ring.
func refRoute(topo Topology, src, dst int) []int32 {
	var w, x, y, dx, dy int
	ringW, ringH := 0, 0 // ring lengths; 0 on a mesh
	switch t := topo.(type) {
	case Mesh:
		w = t.W
		x, y = t.XY(src)
		dx, dy = t.XY(dst)
	case CMesh:
		w = t.W
		x, y = t.routerXY(t.Router(src))
		dx, dy = t.routerXY(t.Router(dst))
	case Torus:
		w, ringW, ringH = t.W, t.W, t.H
		x, y = t.XY(src)
		dx, dy = t.XY(dst)
	}
	var ids []int32
	step := func(v, to, n, axis int) {
		h, dir := abs(to-v), 1
		if to < v {
			dir = -1
		}
		if n > 0 {
			h, dir = ringDist(v, to, n)
		}
		for ; h > 0; h-- {
			ids = append(ids, linkID(y*w+x, axis, dir))
			v += dir
			if n > 0 {
				v = wrap(v, n)
			}
			if axis == 0 {
				x = v
			} else {
				y = v
			}
		}
	}
	step(x, dx, ringW, 0)
	step(y, dy, ringH, 1)
	return ids
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// TestRouteRunsMatchReference checks every (src, dst) pair's runs against
// the hop-by-hop reference on the degenerate and the machine-sized
// shapes: meshes of one tile, one row and one column, every torus with
// rings of length 1 to 5 (the dateline tie on the even ones), and
// concentrated meshes of concentration 2 and 4. Each non-empty run
// steps ±4 (x) or ±4W (y).
func TestRouteRunsMatchReference(t *testing.T) {
	shapes := []Topology{NewMesh(1, 1), NewMesh(1, 7), NewMesh(6, 1), NewMesh(4, 8), NewMesh(16, 16),
		NewCMesh(4, 4, 2), NewCMesh(3, 5, 4)}
	for w := 1; w <= 5; w++ {
		for h := 1; h <= 5; h++ {
			shapes = append(shapes, NewTorus(w, h))
		}
	}
	for _, topo := range shapes {
		width := 0
		switch s := topo.(type) {
		case Mesh:
			width = s.W
		case Torus:
			width = s.W
		case CMesh:
			width = s.W
		}
		n := topo.Tiles()
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				rt := topo.Route(src, dst)
				for _, run := range rt.Runs() {
					if s := abs(int(run.Stride())); run.Count() > 0 && s != 4 && s != 4*width {
						t.Fatalf("%s %d->%d: run %d+%d×%d strides neither ±4 nor ±4W",
							topo.Name(), src, dst, run.First(), run.Stride(), run.Count())
					}
				}
				got, want := routeIDs(topo, src, dst), refRoute(topo, src, dst)
				if len(got) != len(want) || rt.Hops() != len(want) {
					t.Fatalf("%s %d->%d: runs %v (Hops %d), reference %v", topo.Name(), src, dst, got, rt.Hops(), want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s %d->%d: runs %v, reference %v", topo.Name(), src, dst, got, want)
					}
				}
			}
		}
	}
}

func TestXYRoundTrip(t *testing.T) {
	m := NewMesh(4, 8)
	for tile := 0; tile < m.Tiles(); tile++ {
		x, y := m.XY(tile)
		if m.Tile(x, y) != tile {
			t.Fatalf("tile %d round-trips to %d", tile, m.Tile(x, y))
		}
	}
}

func TestRouteLengthEqualsHops(t *testing.T) {
	m := NewMesh(4, 8)
	if err := quick.Check(func(a, b uint8) bool {
		src := int(a) % m.Tiles()
		dst := int(b) % m.Tiles()
		return len(routeIDs(m, src, dst)) == m.Hops(src, dst)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRouteContiguousAdjacent(t *testing.T) {
	m := NewMesh(4, 8)
	for src := 0; src < m.Tiles(); src++ {
		for dst := 0; dst < m.Tiles(); dst++ {
			r := route(m, src, dst)
			cur := src
			for _, l := range r {
				if l.From != cur {
					t.Fatalf("route %d->%d not contiguous: %v", src, dst, r)
				}
				if m.Hops(l.From, l.To) != 1 {
					t.Fatalf("route %d->%d uses non-adjacent link %v", src, dst, l)
				}
				cur = l.To
			}
			if cur != dst {
				t.Fatalf("route %d->%d ends at %d", src, dst, cur)
			}
		}
	}
}

func TestRouteXBeforeY(t *testing.T) {
	m := NewMesh(4, 8)
	r := route(m, m.Tile(0, 0), m.Tile(3, 2))
	// First 3 links must move in X, the rest in Y.
	for i, l := range r {
		fx, fy := m.XY(l.From)
		tx, ty := m.XY(l.To)
		if i < 3 {
			if fy != ty || fx == tx {
				t.Fatalf("link %d should be an X move: %v", i, l)
			}
		} else {
			if fx != tx || fy == ty {
				t.Fatalf("link %d should be a Y move: %v", i, l)
			}
		}
	}
}

func TestRouteSelf(t *testing.T) {
	m := NewMesh(4, 8)
	if m.Route(5, 5).Hops() != 0 {
		t.Fatal("self route should be empty")
	}
	if m.Hops(5, 5) != 0 {
		t.Fatal("self hops should be 0")
	}
}

func TestNewMeshPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0x4 mesh")
		}
	}()
	NewMesh(0, 4)
}

func TestNewFactory(t *testing.T) {
	for _, tc := range []struct {
		kind string
		want string
	}{{"", "mesh"}, {"mesh", "mesh"}, {"torus", "torus"}, {"cmesh", "cmesh"}} {
		topo, err := New(tc.kind, 4, 4, 2)
		if err != nil {
			t.Fatalf("New(%q): %v", tc.kind, err)
		}
		if topo.Name() != tc.want {
			t.Fatalf("New(%q).Name() = %q, want %q", tc.kind, topo.Name(), tc.want)
		}
	}
	if _, err := New("hypercube", 4, 4, 1); err == nil {
		t.Fatal("expected error for unknown topology kind")
	}
}

// checkRoute validates the universal route properties on any shape: the
// route is contiguous from src's router region to dst's, every link id is
// below 4*Tiles() and decodes to a link spanning exactly one hop,
// Hops(src,dst) == the route length, and hops are symmetric.
func checkRoute(t *testing.T, topo Topology, src, dst int) {
	t.Helper()
	ids := routeIDs(topo, src, dst)
	if len(ids) != topo.Hops(src, dst) {
		t.Fatalf("%s %d->%d: route length %d != Hops=%d", topo.Name(), src, dst, len(ids), topo.Hops(src, dst))
	}
	if topo.Hops(src, dst) != topo.Hops(dst, src) {
		t.Fatalf("%s: Hops(%d,%d)=%d asymmetric with Hops(%d,%d)=%d",
			topo.Name(), src, dst, topo.Hops(src, dst), dst, src, topo.Hops(dst, src))
	}
	for _, id := range ids {
		if id < 0 || int(id) >= 4*topo.Tiles() {
			t.Fatalf("%s %d->%d: link id %d outside [0, %d)", topo.Name(), src, dst, id, 4*topo.Tiles())
		}
	}
	r := route(topo, src, dst)
	if len(r) == 0 {
		if topo.Hops(src, dst) != 0 {
			t.Fatalf("%s %d->%d: empty route but %d hops", topo.Name(), src, dst, topo.Hops(src, dst))
		}
		return
	}
	// Contiguity over link endpoints; each link must be a single hop.
	for i, l := range r {
		if i > 0 && r[i-1].To != l.From {
			t.Fatalf("%s %d->%d: route not contiguous at %d: %v", topo.Name(), src, dst, i, r)
		}
		if topo.Hops(l.From, l.To) != 1 {
			t.Fatalf("%s %d->%d: link %v spans %d hops", topo.Name(), src, dst, l, topo.Hops(l.From, l.To))
		}
	}
	// Endpoints: first link leaves src's zero-hop region, last enters dst's.
	if topo.Hops(src, r[0].From) != 0 {
		t.Fatalf("%s %d->%d: route starts at %d, not at src's router", topo.Name(), src, dst, r[0].From)
	}
	if topo.Hops(dst, r[len(r)-1].To) != 0 {
		t.Fatalf("%s %d->%d: route ends at %d, not at dst's router", topo.Name(), src, dst, r[len(r)-1].To)
	}
}

// checkAllRoutes runs checkRoute over all pairs of a small shape, or a
// seeded random sample of a big one.
func checkAllRoutes(t *testing.T, topo Topology, rng *rand.Rand) {
	t.Helper()
	n := topo.Tiles()
	if n <= 64 {
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				checkRoute(t, topo, src, dst)
			}
		}
		return
	}
	for i := 0; i < 512; i++ {
		checkRoute(t, topo, rng.Intn(n), rng.Intn(n))
	}
}

func TestRandomizedShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(8)) // deterministic: same shapes every run
	for i := 0; i < 40; i++ {
		w := 1 + rng.Intn(32)
		h := 1 + rng.Intn(32)
		conc := 1 + rng.Intn(4)
		for _, topo := range []Topology{NewMesh(w, h), NewTorus(w, h), NewCMesh(w, h, conc)} {
			checkAllRoutes(t, topo, rng)
		}
	}
}

func TestMeshMinimality(t *testing.T) {
	// X-Y routing on a mesh is minimal: Hops is exactly the Manhattan
	// distance, checked against a BFS oracle over the adjacency relation.
	for _, dims := range [][2]int{{4, 8}, {8, 8}, {16, 16}, {1, 7}, {5, 1}} {
		m := NewMesh(dims[0], dims[1])
		bfs := bfsDistances(m, 0)
		for dst := 0; dst < m.Tiles(); dst++ {
			if m.Hops(0, dst) != bfs[dst] {
				t.Fatalf("mesh %dx%d: Hops(0,%d)=%d, BFS says %d",
					dims[0], dims[1], dst, m.Hops(0, dst), bfs[dst])
			}
		}
	}
}

func TestTorusMinimality(t *testing.T) {
	for _, dims := range [][2]int{{4, 8}, {8, 8}, {5, 5}, {2, 6}, {1, 8}} {
		tr := NewTorus(dims[0], dims[1])
		bfs := bfsDistances(tr, 0)
		for dst := 0; dst < tr.Tiles(); dst++ {
			if tr.Hops(0, dst) != bfs[dst] {
				t.Fatalf("torus %dx%d: Hops(0,%d)=%d, BFS says %d",
					dims[0], dims[1], dst, tr.Hops(0, dst), bfs[dst])
			}
		}
	}
}

// bfsDistances computes single-source shortest hop counts using only the
// shape's own one-hop relation, as an oracle independent of Hops' formula.
func bfsDistances(topo Topology, src int) []int {
	n := topo.Tiles()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for next := 0; next < n; next++ {
			if dist[next] < 0 && topo.Hops(cur, next) == 1 {
				dist[next] = dist[cur] + 1
				queue = append(queue, next)
			}
		}
	}
	return dist
}

func TestTorusWraparound(t *testing.T) {
	tr := NewTorus(8, 4)
	// Opposite edge columns are one hop apart through the wraparound link.
	if got := tr.Hops(tr.Tile(0, 0), tr.Tile(7, 0)); got != 1 {
		t.Fatalf("torus x-wraparound: Hops=%d, want 1", got)
	}
	if got := tr.Hops(tr.Tile(0, 0), tr.Tile(0, 3)); got != 1 {
		t.Fatalf("torus y-wraparound: Hops=%d, want 1", got)
	}
	r := route(tr, tr.Tile(0, 0), tr.Tile(7, 0))
	if len(r) != 1 || r[0] != (Link{From: tr.Tile(0, 0), To: tr.Tile(7, 0)}) {
		t.Fatalf("torus wraparound route: %v", r)
	}
	// Torus halves the worst-case distance relative to a mesh of the same
	// dimensions.
	m := NewMesh(8, 4)
	if tr.Hops(0, tr.Tiles()-1) >= m.Hops(0, m.Tiles()-1) {
		t.Fatalf("torus corner distance %d not shorter than mesh %d",
			tr.Hops(0, tr.Tiles()-1), m.Hops(0, m.Tiles()-1))
	}
}

func TestTorusDatelineTieBreak(t *testing.T) {
	// On an even ring the halfway distance has two equally short ways
	// around; the dateline rule resolves it toward increasing coordinate,
	// so the first link must step from x to x+1.
	tr := NewTorus(8, 1)
	r := route(tr, tr.Tile(1, 0), tr.Tile(5, 0)) // distance 4 both ways
	if len(r) != 4 {
		t.Fatalf("halfway route length %d, want 4", len(r))
	}
	if r[0] != (Link{From: tr.Tile(1, 0), To: tr.Tile(2, 0)}) {
		t.Fatalf("dateline tie must resolve toward +x: %v", r[0])
	}
}

func TestCMeshSameRouter(t *testing.T) {
	c := NewCMesh(4, 4, 4) // 64 tiles, 16 routers
	if c.Tiles() != 64 {
		t.Fatalf("cmesh tiles = %d, want 64", c.Tiles())
	}
	// Tiles 0..3 share router 0: zero hops, empty route.
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			if c.Hops(a, b) != 0 {
				t.Fatalf("same-router tiles %d,%d: Hops=%d", a, b, c.Hops(a, b))
			}
			if c.Route(a, b).Hops() != 0 {
				t.Fatalf("same-router tiles %d,%d: non-empty route", a, b)
			}
		}
	}
	// Tiles on adjacent routers are one hop apart regardless of which tile
	// of the router they are.
	if got := c.Hops(3, 4); got != 1 {
		t.Fatalf("adjacent-router tiles: Hops=%d, want 1", got)
	}
}

// linkShapes are small shapes covering every kind and the degenerate rings
// (a torus ring of length 2 and of length 1, a one-column mesh).
func linkShapes() []Topology {
	return []Topology{
		NewMesh(4, 8), NewMesh(1, 6), NewTorus(4, 4), NewTorus(2, 5),
		NewTorus(1, 4), NewCMesh(3, 3, 2), NewCMesh(4, 2, 4),
	}
}

func TestNumLinksMatchesEnumeration(t *testing.T) {
	// NumLinks must equal the number of distinct directed links that appear
	// across all routes of the shape.
	for _, topo := range linkShapes() {
		seen := map[Link]bool{}
		n := topo.Tiles()
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				for _, l := range route(topo, src, dst) {
					seen[l] = true
				}
			}
		}
		if len(seen) != topo.NumLinks() {
			t.Fatalf("%s: NumLinks=%d but routes use %d distinct links",
				topo.Name(), topo.NumLinks(), len(seen))
		}
	}
}

// TestDenseLinkIDs checks the dense link-id space over every pair of every
// shape, up to the 1024-tile mesh: ids stay below 4*Tiles(), each decodes
// to a one-hop link, each route runs contiguously from src to dst in Hops
// links, and ids and decoded links correspond one-to-one — the property
// that lets the NoC key link contention by id instead of by (from, to).
func TestDenseLinkIDs(t *testing.T) {
	shapes := append(linkShapes(), NewMesh(16, 16), NewMesh(32, 32))
	for _, topo := range shapes {
		n := topo.Tiles()
		seen := make([]bool, 4*n)
		idOf := map[Link]int32{}
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				buf := routeIDs(topo, src, dst)
				if len(buf) != topo.Hops(src, dst) {
					t.Fatalf("%s %d->%d: %d links, Hops=%d", topo.Name(), src, dst, len(buf), topo.Hops(src, dst))
				}
				at := src
				for _, id := range buf {
					if id < 0 || int(id) >= 4*n {
						t.Fatalf("%s %d->%d: id %d outside [0, %d)", topo.Name(), src, dst, id, 4*n)
					}
					l := topo.Link(id)
					if topo.Hops(l.From, l.To) != 1 || topo.Hops(at, l.From) != 0 {
						t.Fatalf("%s %d->%d: link %d = %v is not the next hop from %d", topo.Name(), src, dst, id, l, at)
					}
					at = l.To
					if seen[id] {
						continue
					}
					// Link is a function of id, so one-to-one needs only
					// that no two ids decode to the same link.
					if prev, ok := idOf[l]; ok {
						t.Fatalf("%s: link %v has ids %d and %d", topo.Name(), l, prev, id)
					}
					seen[id], idOf[l] = true, id
				}
				if topo.Hops(at, dst) != 0 {
					t.Fatalf("%s %d->%d: route ends at %d", topo.Name(), src, dst, at)
				}
			}
		}
		if len(idOf) != topo.NumLinks() {
			t.Fatalf("%s: routes use %d distinct ids, NumLinks=%d", topo.Name(), len(idOf), topo.NumLinks())
		}
	}
}

// TestRunPacksMaxSide checks that the longest stretch a grid can have, on
// a maxSide-wide grid, stepping down either axis, survives the Run
// packing, and that a wider grid is refused.
func TestRunPacksMaxSide(t *testing.T) {
	r := maxSide*maxSide - 1 // the last router of the grid
	for axis, step := range []int{1, maxSide} {
		got := run(axis, r, -(maxSide - 1), step)
		if got.First() != linkID(r, axis, -1) || got.Stride() != int32(-4*step) || got.Count() != maxSide-1 {
			t.Fatalf("axis %d: run unpacks to %d+%d×%d", axis, got.First(), got.Stride(), got.Count())
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected a panic for a mesh wider than maxSide")
		}
	}()
	NewMesh(maxSide+1, 1)
}
