package embed

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cube"
	"repro/internal/guest"
	"repro/internal/mesh"
)

// route returns the code of the edge's pinned route, 0 when unpinned.
func (e *Embedding) route(ed mesh.Edge) uint8 {
	if e.Routes == nil {
		return 0
	}
	return e.Routes[routeSlot(ed, e.Guest.Dims(), e.Family == guest.Tree)]
}

// routePath materializes an edge's route the slow way: the e-cube route, or
// the pinned code's entry in cube.ShortestPaths, whose enumeration order is
// the rank order route codes count in.
func routePath(e *Embedding, ed mesh.Edge) cube.Path {
	a, b := e.Map[ed.U], e.Map[ed.V]
	if c := e.route(ed); c != 0 {
		return cube.ShortestPaths(a, b)[c]
	}
	return cube.Route(a, b)
}

// walkCode walks route code c from a to b with the engine's decoder.
func walkCode(a, b cube.Node, c uint8) cube.Path {
	diff := uint64(a ^ b)
	d := cube.Dist(a, b)
	p := cube.Path{a}
	flips := routeBits(diff, c)
	for _, bit := range flips[:d] {
		p = append(p, p[len(p)-1]^cube.Node(bit))
	}
	return p
}

// TestRouteRanksMatchShortestPaths pins the code format: code c walks the
// c-th path of cube.ShortestPaths, code 0 is the e-cube route, and
// ReverseRoute names the same path walked from the other end.
func TestRouteRanksMatchShortestPaths(t *testing.T) {
	pairs := [][2]cube.Node{{5, 5}, {0, 8}, {0b1001, 0b0011}, {0, 0b10110}, {0b0110_0001, 0b1010_1000}, {0b1111, 0}, {3, 0b1010_0001}}
	for _, pr := range pairs {
		a, b := pr[0], pr[1]
		d := cube.Dist(a, b)
		all := cube.ShortestPaths(a, b)
		if len(all) != routeCount[d] {
			t.Fatalf("%d→%d: %d shortest paths, want %d", a, b, len(all), routeCount[d])
		}
		if got := walkCode(a, b, 0); !slices.Equal(got, cube.Route(a, b)) {
			t.Errorf("%d→%d: code 0 walks %v, e-cube is %v", a, b, got, cube.Route(a, b))
		}
		back := cube.ShortestPaths(b, a)
		for c := range all {
			got := walkCode(a, b, uint8(c))
			if !slices.Equal(got, all[c]) {
				t.Errorf("%d→%d code %d: walks %v, rank order has %v", a, b, c, got, all[c])
			}
			rev := slices.Clone(got)
			slices.Reverse(rev)
			if r := ReverseRoute(uint8(c), d); !slices.Equal(back[r], rev) {
				t.Errorf("%d→%d code %d: reverse code %d is %v, want %v", a, b, c, r, back[r], rev)
			}
		}
	}
}

// TestRouteCodeValidation replaces the explicit-path checks: broken walks
// and wrong endpoints cannot be written as codes, so Verify's job is to
// reject codes out of range for their edge, codes on slots no edge owns and
// tables of the wrong length.
func TestRouteCodeValidation(t *testing.T) {
	e := New(mesh.Shape{2}, 2)
	e.Map[0], e.Map[1] = 0, 3
	e.Routes = []uint8{1, 0}
	if err := e.Verify(); err != nil {
		t.Errorf("valid route code rejected: %v", err)
	}
	if e.EdgeDilation(0, 1) != 2 || e.Dilation() != 2 {
		t.Errorf("pinned dilation = %d / %d, want 2", e.EdgeDilation(0, 1), e.Dilation())
	}
	// Code 1 at distance 2 flips bit 1 first: links (0,dim 1) and (2,dim 0).
	loads := e.LinkLoads()
	if loads[cube.LinkIndex(cube.Link{Lo: 0, Dim: 1}, 2)] != 1 || loads[cube.LinkIndex(cube.Link{Lo: 2, Dim: 0}, 2)] != 1 {
		t.Errorf("code 1 loads %v", loads)
	}
	for name, tc := range map[string]struct {
		img    [2]cube.Node
		routes []uint8
	}{
		"code ≥ d!":           {[2]cube.Node{0, 3}, []uint8{2, 0}},
		"code at distance 1":  {[2]cube.Node{0, 1}, []uint8{1, 0}},
		"code at distance 0":  {[2]cube.Node{1, 1}, []uint8{1, 0}},
		"non-edge slot":       {[2]cube.Node{0, 3}, []uint8{0, 1}},
		"short table":         {[2]cube.Node{0, 3}, []uint8{1}},
		"long table":          {[2]cube.Node{0, 3}, []uint8{1, 0, 0}},
		"empty non-nil table": {[2]cube.Node{0, 3}, []uint8{}},
	} {
		e.Map[0], e.Map[1] = tc.img[0], tc.img[1]
		e.Routes = tc.routes
		if err := e.VerifyManyToOne(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Distance 5 has no codes: e-cube only.
	far := New(mesh.Shape{2}, 5)
	far.Map[1] = 31
	far.Routes = []uint8{1, 0}
	if err := far.Verify(); err == nil {
		t.Error("code on a distance-5 edge accepted")
	}
	far.Routes[0] = 0
	if err := far.Verify(); err != nil {
		t.Errorf("all-zero table rejected: %v", err)
	}
}

// TestRouteSlots pins the slot of each family's edges, wraparound and tree
// edges included, against the enumeration: every edge owns a distinct slot
// inside the table.
func TestRouteSlots(t *testing.T) {
	for _, e := range metricsTestEmbeddings() {
		dims, tree := e.Guest.Dims(), e.Family == guest.Tree
		owned := make([]bool, e.RouteSlots())
		e.eachGuestEdge(func(ed mesh.Edge) {
			s := routeSlot(ed, dims, tree)
			if owned[s] {
				t.Fatalf("%s %v: edge %+v reuses slot %d", e.Family, e.Guest, ed, s)
			}
			owned[s] = true
		})
	}
	wrap := mesh.Edge{U: 1, V: 13, Axis: 1, Wrap: true} // 4x4 torus, column 1
	if got := routeSlot(wrap, 2, false); got != 27 {
		t.Errorf("wrap edge slot %d, want 27 (generated by V)", got)
	}
	if got := routeSlot(mesh.Edge{U: 2, V: 6}, 1, true); got != 5 {
		t.Errorf("tree edge slot %d, want 5", got)
	}
}

// fuzzGuests are the small guests FuzzVerifyRoutes writes route tables
// for: an identity-reshaped map puts many edges at distance 2..4, and every
// family's slot layout is covered.
func fuzzGuests() []*Embedding {
	var out []*Embedding
	for _, g := range []struct {
		f guest.Family
		s mesh.Shape
	}{
		{guest.Mesh, mesh.Shape{3, 5}},
		{guest.Mesh, mesh.Shape{2, 3, 3}},
		{guest.Torus, mesh.Shape{3, 5}},
		{guest.Cylinder, mesh.Shape{2, 3, 4}},
		{guest.Tree, mesh.Shape{15}},
	} {
		e := New(g.s, g.s.MinCubeDim())
		e.Family = g.f
		for i := range e.Map {
			e.Map[i] = cube.Node(i)
		}
		out = append(out, e)
	}
	return out
}

// FuzzVerifyRoutes writes arbitrary bytes as the route table of a small
// guest: Verify must reject every bad table without panicking, and every
// table it accepts must measure without panicking and agree with the
// reference oracle.
func FuzzVerifyRoutes(f *testing.F) {
	for i, e := range fuzzGuests() {
		e.RealizeMinCongestion()
		f.Add(uint8(i), e.Routes)
		f.Add(uint8(i), make([]byte, e.RouteSlots()))
	}
	f.Add(uint8(0), []byte{1, 2, 3, 4, 5, 6, 23, 24, 255})
	f.Fuzz(func(t *testing.T, which uint8, routes []byte) {
		guests := fuzzGuests()
		e := guests[int(which)%len(guests)]
		e.Routes = routes
		if err := e.Verify(); err != nil {
			return
		}
		if got, want := e.Measure(), e.measureOnHost(); got != want {
			t.Fatalf("%s %v routes %v: fused %v, oracle %v", e.Family, e.Guest, routes, got, want)
		}
	})
}

// TestFlipLinkMatchesLinkIndex pins the engine's link index of a bit flip
// to cube.LinkIndex of the link it crosses, from either endpoint.
func TestFlipLinkMatchesLinkIndex(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20000; trial++ {
		n := 1 + r.Intn(40)
		cur := r.Uint64() & (1<<uint(n) - 1)
		dim := r.Intn(n)
		want := cube.LinkIndex(cube.Link{Lo: cube.Node(cur &^ (1 << uint(dim))), Dim: dim}, n)
		if got := flipLink(cur, 1<<uint(dim), n); got != want {
			t.Fatalf("n=%d cur=%b dim=%d: flipLink %d, LinkIndex %d", n, cur, dim, got, want)
		}
	}
}
