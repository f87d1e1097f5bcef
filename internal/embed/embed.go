// Package embed defines the Embedding value — a map from the nodes of a
// guest mesh to the nodes of a Boolean cube together with a realization of
// every guest edge as a cube path — and computes the quality measures of the
// paper: expansion, dilation, average dilation, congestion, average
// congestion and (for many-to-one embeddings) load factor.
package embed

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/cube"
	"repro/internal/guest"
	"repro/internal/mesh"
)

// Embedding maps a guest graph into a Boolean N-cube.
//
// The guest is a (Family, Shape) pair from the guest-family registry: the
// Shape fixes the node set (dense indices, axis 0 fastest) and the Family
// fixes the edge interpretation (mesh, torus, cylinder, tree, …).  The
// zero Family is guest.Mesh, so plain mesh embeddings need no extra setup.
//
// Map[i] is the cube node hosting guest node i.  For one-to-one embeddings
// Map must be injective; many-to-one embeddings (Section 7 of the paper)
// relax this and are validated with VerifyManyToOne.
//
// Routes, if non-nil, pins the host route of guest edges: one route code
// (routes.go) per guest-edge slot, 0 for the e-cube route every unpinned
// edge takes.  A slot is the generating node × fan-out + local index, as
// the family's edge enumeration generates the edge: U·Dims + Axis for a
// mesh, torus or cylinder edge (V·Dims + Axis for a wraparound edge, which
// its higher endpoint generates), V − 1 for a tree edge.  Every route is a
// shortest path, so pinning never changes the dilation.
type Embedding struct {
	Guest  mesh.Shape
	Family guest.Family // edge interpretation of Guest (zero: mesh)
	N      int          // host cube dimension
	Map    []cube.Node

	// Routes optionally pins the host route of guest edges, RouteSlots()
	// bytes long when non-nil.
	Routes []uint8
}

// New allocates an embedding of the guest shape into an n-cube with an
// all-zero map (to be filled in by a constructor).  The family defaults to
// mesh; constructors of other families set Family themselves.
func New(s mesh.Shape, n int) *Embedding {
	return &Embedding{Guest: s.Clone(), N: n, Map: make([]cube.Node, s.Nodes())}
}

// HostNodes returns 2^N.
func (e *Embedding) HostNodes() int { return 1 << uint(e.N) }

// Expansion returns |V(H)| / |V(G)| (Definition 1).
func (e *Embedding) Expansion() float64 {
	return float64(e.HostNodes()) / float64(e.Guest.Nodes())
}

// Minimal reports whether the embedding uses the minimal cube:
// N == ⌈log₂ |V(G)|⌉.
func (e *Embedding) Minimal() bool { return e.N == e.Guest.MinCubeDim() }

// Wraps reports whether the guest family has wraparound edges.
func (e *Embedding) Wraps() bool { return guest.Get(e.Family).Wraps }

// eachGuestEdge iterates guest edges under the family's interpretation.
func (e *Embedding) eachGuestEdge(fn func(mesh.Edge)) {
	guest.Get(e.Family).EachEdgeRange(e.Guest, 0, e.Guest.Nodes(), fn)
}

// NumGuestEdges returns the number of guest edges under the family's
// interpretation.
func (e *Embedding) NumGuestEdges() int {
	return guest.Get(e.Family).Edges(e.Guest)
}

// EdgeDilation returns the dilation of one guest edge: the cube distance of
// its endpoint images, which every route, pinned or not, attains.
func (e *Embedding) EdgeDilation(u, v int) int {
	return cube.Dist(e.Map[u], e.Map[v])
}

// Dilation returns the maximum edge dilation (Definition 2).  It is a thin
// wrapper over the fused metrics engine (metrics.go).
func (e *Embedding) Dilation() int {
	return e.fusedPass(context.Background(), false).maxDil
}

// AvgDilation returns the mean edge dilation (Definition 2).  It returns 0
// for guests with no edges.
func (e *Embedding) AvgDilation() float64 {
	st := e.fusedPass(context.Background(), false)
	if st.edges == 0 {
		return 0
	}
	return float64(st.dilSum) / float64(st.edges)
}

// AxisAvgDilation returns the mean dilation of the edges along one guest
// axis (the d̄₂(i) of Section 4.1), or 0 if the axis has no edges.
func (e *Embedding) AxisAvgDilation(axis int) float64 {
	st := e.fusedPass(context.Background(), false)
	if axis < 0 || axis >= len(st.axisSum) || st.axisCnt[axis] == 0 {
		return 0
	}
	return float64(st.axisSum[axis]) / float64(st.axisCnt[axis])
}

// LinkLoads returns the congestion of every host link under the current
// path realization, indexed by cube.LinkIndex.
func (e *Embedding) LinkLoads() []int {
	st := e.fusedPass(context.Background(), true)
	loads := make([]int, len(st.loads))
	for i := range loads {
		loads[i] = st.load(i)
	}
	return loads
}

// Congestion returns the maximum link congestion (Definition 3).
func (e *Embedding) Congestion() int {
	return e.fusedPass(context.Background(), true).maxLoad
}

// AvgCongestion returns the mean congestion over all host links
// (Definition 3), counting idle links.  The total load equals the dilation
// sum (a path of length d crosses d links), so no load vector is needed.
func (e *Embedding) AvgCongestion() float64 {
	numLinks := cube.NumLinks(e.N)
	if numLinks == 0 {
		return 0
	}
	return float64(e.fusedPass(context.Background(), false).dilSum) / float64(numLinks)
}

// LoadFactor returns the maximum number of guest nodes sharing a host node
// (Definition 5).  For a valid one-to-one embedding it is 1, which one bit
// per host node proves; only a collision pays for counting.  Small cubes
// are counted in a dense slice; cubes above denseNodeLimit fall back to a
// map.
func (e *Embedding) LoadFactor() int {
	hn := e.HostNodes()
	if len(e.Map) == 0 || hn > denseNodeLimit {
		return e.loadFactorMap()
	}
	dup, inCube := e.firstCollision()
	if !inCube {
		return e.loadFactorMap() // invalid image; stay permissive like the map path
	}
	if dup < 0 {
		return 1
	}
	counts := make([]int32, hn)
	max := int32(0)
	for _, h := range e.Map {
		counts[h]++
		if counts[h] > max {
			max = counts[h]
		}
	}
	return int(max)
}

// firstCollision returns the first guest node whose image an earlier guest
// node already holds, or -1 for an injective map, counting in one bit per
// host node.  inCube is false, and dup meaningless, when an image lies
// outside the cube.  The cube must have at most denseNodeLimit nodes.
func (e *Embedding) firstCollision() (dup int, inCube bool) {
	hn := uint64(e.HostNodes())
	seen := make([]uint64, (hn+63)/64)
	for i, h := range e.Map {
		if uint64(h) >= hn {
			return -1, false
		}
		w, bit := h/64, uint64(1)<<(h%64)
		if seen[w]&bit != 0 {
			return i, true
		}
		seen[w] |= bit
	}
	return -1, true
}

func (e *Embedding) loadFactorMap() int {
	counts := make(map[cube.Node]int, len(e.Map))
	max := 0
	for _, h := range e.Map {
		counts[h]++
		if counts[h] > max {
			max = counts[h]
		}
	}
	return max
}

// OptimalLoadFactor returns ⌈|V(G)| / 2^N⌉, the best possible load factor.
func (e *Embedding) OptimalLoadFactor() int {
	hn := e.HostNodes()
	return (e.Guest.Nodes() + hn - 1) / hn
}

// Verify checks the structural invariants of a one-to-one embedding:
// the guest shape is valid, every image is inside the cube, the map is
// injective, and every route code is valid for its edge (verifyRoutes).
func (e *Embedding) Verify() error {
	if err := e.verifyCommon(); err != nil {
		return err
	}
	if e.HostNodes() <= denseNodeLimit {
		// Dense injectivity check (verifyCommon bounds every image).  Only
		// a duplicate pays for finding the earlier guest node that claimed
		// its image.
		i, _ := e.firstCollision()
		if i >= 0 {
			h := e.Map[i]
			prev := slices.Index(e.Map, h)
			return fmt.Errorf("embed: guest nodes %v and %v both map to cube node %d",
				e.Guest.Coord(prev), e.Guest.Coord(i), h)
		}
		return nil
	}
	seen := make(map[cube.Node]int, len(e.Map))
	for i, h := range e.Map {
		if prev, dup := seen[h]; dup {
			return fmt.Errorf("embed: guest nodes %v and %v both map to cube node %d",
				e.Guest.Coord(prev), e.Guest.Coord(i), h)
		}
		seen[h] = i
	}
	return nil
}

// VerifyManyToOne checks the invariants of a many-to-one embedding
// (everything Verify checks except injectivity).
func (e *Embedding) VerifyManyToOne() error { return e.verifyCommon() }

func (e *Embedding) verifyCommon() error {
	if err := guest.Validate(e.Family, e.Guest); err != nil {
		return err
	}
	if e.N < 0 || e.N > 62 {
		return fmt.Errorf("embed: cube dimension %d out of range", e.N)
	}
	if len(e.Map) != e.Guest.Nodes() {
		return fmt.Errorf("embed: map covers %d of %d guest nodes", len(e.Map), e.Guest.Nodes())
	}
	limit := cube.Node(1) << uint(e.N)
	for i, h := range e.Map {
		if h >= limit {
			return fmt.Errorf("embed: guest node %v maps to %d, outside the %d-cube",
				e.Guest.Coord(i), h, e.N)
		}
	}
	return e.verifyRoutes()
}

// Metrics bundles the quality measures for reporting.  Family names the
// guest family ("mesh", "torus", "cylinder", "tree"); Wrap is kept as the
// historical torus marker for wire compatibility.
type Metrics struct {
	Guest         string
	Family        string
	Wrap          bool
	CubeDim       int
	Expansion     float64
	Minimal       bool
	Dilation      int
	AvgDilation   float64
	Wirelength    int64
	Congestion    int
	AvgCongestion float64
	LoadFactor    int
}

// Measure computes all metrics of the embedding in one fused edge pass on
// the caller's goroutine (see metrics.go).
func (e *Embedding) Measure() Metrics {
	return e.MeasureCtx(context.Background())
}

// String renders the metrics compactly.  The torus keeps its historical
// " (wraparound)" marker; other non-mesh families show their name.
func (m Metrics) String() string {
	w := ""
	switch {
	case m.Wrap || m.Family == "torus":
		w = " (wraparound)"
	case m.Family != "" && m.Family != "mesh":
		w = " (" + m.Family + ")"
	}
	return fmt.Sprintf("%s%s -> %d-cube: exp=%.4f minimal=%v dil=%d avgdil=%.4f wl=%d cong=%d avgcong=%.4f load=%d",
		m.Guest, w, m.CubeDim, m.Expansion, m.Minimal, m.Dilation, m.AvgDilation, m.Wirelength, m.Congestion, m.AvgCongestion, m.LoadFactor)
}
