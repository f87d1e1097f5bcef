package embed

import (
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
	loads := make([]int, cube.NumLinks(e.N))
	edges, dilSum, maxDil := 0, 0, 0
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
