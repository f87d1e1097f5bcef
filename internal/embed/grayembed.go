package embed

import (
	"repro/internal/cube"
	"repro/internal/gray"
	"repro/internal/guest"
	"repro/internal/mesh"
)

// Gray returns the binary-reflected Gray-code embedding of the mesh
// (Section 3.1): axis i is encoded in ⌈log₂ ℓi⌉ bits, axis 0 in the least
// significant bits.  The dilation and congestion are one; the expansion is
// Π⌈ℓi⌉₂ / Πℓi, which is minimal exactly when Shape.GrayMinimal holds
// (Theorem 1 shows no dilation-one embedding can do better).
func Gray(s mesh.Shape) *Embedding {
	p := gray.NewProduct(s...)
	e := New(s, p.Bits())
	coord := make([]int, s.Dims())
	for idx := range e.Map {
		s.CoordInto(idx, coord)
		e.Map[idx] = cube.Node(p.Code(coord))
	}
	return e
}

// GrayMetrics returns Gray(s).Measure() without building the embedding:
// the Gray map is injective and joins the ends of every mesh edge by one
// host link, so no two edges share a link.
func GrayMetrics(s mesh.Shape) Metrics {
	e := &Embedding{Guest: s, N: s.GrayCubeDim()}
	edges := int64(s.Edges())
	m := Metrics{
		Guest:      s.String(),
		Family:     guest.Mesh.String(),
		CubeDim:    e.N,
		Expansion:  e.Expansion(),
		Minimal:    e.Minimal(),
		Wirelength: edges,
		LoadFactor: 1,
	}
	if edges > 0 {
		m.Dilation, m.AvgDilation, m.Congestion = 1, 1, 1
		m.AvgCongestion = float64(edges) / float64(cube.NumLinks(e.N))
	}
	return m
}

// GrayRing returns the dilation-one embedding of a wraparound axis of
// power-of-two length: the cyclic Gray code.  For a multi-axis torus with
// all power-of-two axes, Gray already yields dilation one including the
// wraparound edges (set Family to torus on the result); this helper exists
// for rings.
func GrayRing(length int) *Embedding {
	e := Gray(mesh.Shape{length})
	e.Family = guest.Torus
	return e
}

// Identity returns the trivial embedding of a 1-node mesh into a 0-cube.
func Identity() *Embedding {
	return New(mesh.Shape{1}, 0)
}
