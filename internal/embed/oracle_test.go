package embed

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cube"
	"repro/internal/guest"
	"repro/internal/mesh"
)

// measureOnHost is the reference oracle for Measure: the same Metrics
// computed the slow, obvious way — one Hamming distance, one e-cube route
// (or the pinned route, picked from cube.ShortestPaths by its rank) and one
// dense link index per guest edge, straight from internal/cube,
// with none of the fused engine's blocking, scratch reuse or worker split.
func (e *Embedding) measureOnHost() Metrics {
	loads, edges, dilSum, maxDil := e.walkOnHost()

	m := Metrics{
		Guest:      e.Guest.String(),
		Family:     e.Family.String(),
		Wrap:       e.Family == guest.Torus,
		CubeDim:    e.N,
		Expansion:  float64(uint64(1)<<uint(e.N)) / float64(e.Guest.Nodes()),
		Minimal:    e.Guest.MinCubeDim() == e.N,
		Dilation:   maxDil,
		Wirelength: int64(dilSum),
	}
	if edges > 0 {
		m.AvgDilation = float64(dilSum) / float64(edges)
	}
	sum := 0
	for _, c := range loads {
		if c > m.Congestion {
			m.Congestion = c
		}
		sum += c
	}
	if len(loads) > 0 {
		m.AvgCongestion = float64(sum) / float64(len(loads))
	}
	counts := make(map[cube.Node]int)
	for _, img := range e.Map {
		counts[img]++
		if counts[img] > m.LoadFactor {
			m.LoadFactor = counts[img]
		}
	}
	return m
}

// walkOnHost realizes every guest edge as its cube path and returns the
// link loads, edge count, dilation sum and maximum dilation.
func (e *Embedding) walkOnHost() (loads []int, edges, dilSum, maxDil int) {
	loads = make([]int, cube.NumLinks(e.N))
	visit := func(ed mesh.Edge) {
		d := cube.Dist(e.Map[ed.U], e.Map[ed.V])
		p := routePath(e, ed)
		edges++
		dilSum += d
		if d > maxDil {
			maxDil = d
		}
		for i := 0; i+1 < len(p); i++ {
			loads[cube.LinkIndex(cube.LinkBetween(p[i], p[i+1]), e.N)]++
		}
	}
	guest.Get(e.Family).EachEdgeRange(e.Guest, 0, e.Guest.Nodes(), visit)
	return loads, edges, dilSum, maxDil
}

// TestMeasureOnHostAgreesWithFused pins the fused engine to its reference
// oracle: measureOnHost must agree with Measure bit for bit on every guest
// family in the metrics test set (mesh, torus, cylinder, tree, pinned
// paths).
func TestMeasureOnHostAgreesWithFused(t *testing.T) {
	for name, e := range metricsTestEmbeddings() {
		got, want := e.measureOnHost(), e.Measure()
		if got != want {
			t.Errorf("%s:\n oracle %+v\n fused  %+v", name, got, want)
		}
	}
}

// alternatingPath embeds an l-node path in an n-cube, its nodes alternating
// between images 0 and 2^n − 1, so every edge crosses all n dimensions.
// With pinned, each edge takes a seeded random one of its n! routes.
func alternatingPath(l, n int, pinned bool) *Embedding {
	e := New(mesh.Shape{l}, n)
	far := cube.Node(1)<<uint(n) - 1
	for i := range e.Map {
		if i%2 == 1 {
			e.Map[i] = far
		}
	}
	if pinned {
		r := rand.New(rand.NewSource(int64(l)))
		e.Routes = make([]uint8, e.RouteSlots())
		for i := 0; i+1 < l; i++ {
			e.Routes[i] = uint8(r.Intn(routeCount[n]))
		}
	}
	return e
}

// TestCongestionAboveByteRange drives link loads to and past the byte
// counters' 255: a load of exactly 255 saturates its byte, and every count
// beyond goes to the overflow map.  Measure, Congestion and LinkLoads must
// equal the oracle exactly.
func TestCongestionAboveByteRange(t *testing.T) {
	cases := map[string]*Embedding{
		"path-256-in-1cube":         alternatingPath(256, 1, false), // load 255
		"path-257-in-1cube":         alternatingPath(257, 1, false), // load 256
		"path-600-in-1cube":         alternatingPath(600, 1, false),
		"path-600-in-2cube-pinned":  alternatingPath(600, 2, true),
		"path-2000-in-3cube-pinned": alternatingPath(2000, 3, true),
	}
	for name, e := range cases {
		if err := e.VerifyManyToOne(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := e.measureOnHost()
		if want.Congestion < 255 {
			t.Fatalf("%s: oracle congestion %d does not reach the byte range", name, want.Congestion)
		}
		if got := e.Measure(); got != want {
			t.Errorf("%s:\n oracle %+v\n fused  %+v", name, want, got)
		}
		if got := e.Congestion(); got != want.Congestion {
			t.Errorf("%s: Congestion %d, oracle %d", name, got, want.Congestion)
		}
		wantLoads, _, _, _ := e.walkOnHost()
		if got := e.LinkLoads(); !slices.Equal(got, wantLoads) {
			t.Errorf("%s: LinkLoads %v, oracle %v", name, got, wantLoads)
		}
	}
}
