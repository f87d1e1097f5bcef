package embed

import (
	"context"
	"fmt"
	"math"
	mathbits "math/bits"
	"time"

	"repro/internal/cube"
	"repro/internal/guest"
	"repro/internal/mesh"
	"repro/internal/obs"
)

// The fused metrics engine: one traversal of the guest edge set, on the
// caller's goroutine, computes every edge-derived quantity of Metrics
// (dilation, average dilation, per-axis average dilation, link loads,
// congestion, average congestion) at once.  Concurrency comes from the
// callers — requests, compare techniques, job chunks — not from splitting
// one pass.  Link loads are counted one byte per host link: congestion in
// these constructions is a handful of paths, and the rare count above 255
// spills into a sparse overflow map, so every load stays exact.  Every edge
// walks its route bit by bit, accumulating cube.LinkIndex directly, and
// touches no heap at all: an unpinned edge flips its differing bits in
// ascending order (e-cube), a pinned edge in the order its route code
// names.  Dilation-only passes skip the walk — every route is shortest, so
// an edge's dilation is its cube distance.

// denseNodeLimit bounds the dense tables (size 2^N) used by Verify and
// LoadFactor; larger cubes fall back to maps.
const denseNodeLimit = 1 << 22

// edgeStats holds the integer tallies of a fused pass over the guest edge
// set.
type edgeStats struct {
	edges   int64 // Σ axisCnt
	dilSum  int64 // Σ axisSum == Σ edge dilation == Σ realized path length == Σ loads
	maxDil  int
	axisSum []int64 // per guest axis, for AxisAvgDilation
	axisCnt []int64
	loads   []uint8       // per cube.LinkIndex, saturating; nil when loads were not requested
	over    map[int]int32 // per saturated link, its count above MaxUint8
	maxLoad int           // the largest load counted: the congestion
}

// addLoad counts one traversal of link i.
func (st *edgeStats) addLoad(i int) {
	c := int(st.loads[i])
	if c < math.MaxUint8 {
		st.loads[i]++
		c++
	} else {
		if st.over == nil {
			st.over = make(map[int]int32)
		}
		st.over[i]++
		c += int(st.over[i])
	}
	if c > st.maxLoad {
		st.maxLoad = c
	}
}

// load returns the number of paths crossing link i.
func (st *edgeStats) load(i int) int {
	c := int(st.loads[i])
	if c == math.MaxUint8 {
		c += int(st.over[i])
	}
	return c
}

// addRoute counts the links of a pinned route: the differing bits of diff,
// flipped from cur in the order route code c names.
func (st *edgeStats) addRoute(cur, diff uint64, c uint8, n int) {
	flips := routeBits(diff, c)
	for _, bit := range flips[:mathbits.OnesCount64(diff)] {
		st.addLoad(flipLink(cur, bit, n))
		cur ^= bit
	}
}

// fusedPass runs the fused edge traversal.  wantLoads controls whether the
// per-link load vector (NumLinks(N) bytes) is accumulated — dilation-only
// callers skip it.
//
// When ctx carries an active obs span the pass runs under a "fused-pass"
// child span recording its edge count and scan time.  When it does not —
// the hot path — the only extra cost is one atomic load plus a context
// lookup.
func (e *Embedding) fusedPass(ctx context.Context, wantLoads bool) edgeStats {
	axes := e.Guest.Dims()
	st := edgeStats{axisSum: make([]int64, axes), axisCnt: make([]int64, axes)}
	if wantLoads {
		st.loads = make([]uint8, cube.NumLinks(e.N))
	}
	_, span := obs.Start(ctx, "fused-pass")
	if span == nil {
		e.scan(&st)
		return st
	}
	defer span.End()
	span.SetAttr("want_loads", wantLoads)
	t0 := time.Now()
	e.scan(&st)
	span.SetAttr("scan_ns", time.Since(t0).Nanoseconds())
	span.SetAttr("edges", st.edges)
	return st
}

// scan tallies every guest edge into st.
//
// Every registered family dispatches through a direct method call so the
// visit closure stays on the stack: escape analysis only trusts the "fn
// does not escape" summary of a known callee, and the analysis is
// flow-insensitive, so even one indirect registry call in a reachable
// branch would heap-spill the closure for every family.  The branches call
// the exact enumerations the registry registers — the measureOnHost test
// oracle, which does go through the registry, pins the agreement — and a
// family without a branch here is a programming error.
func (e *Embedding) scan(st *edgeStats) {
	n, dims, tree := e.N, e.Guest.Dims(), e.Family == guest.Tree
	axisSum, axisCnt := st.axisSum, st.axisCnt
	visit := func(ed mesh.Edge) {
		cur := uint64(e.Map[ed.U])
		diff := cur ^ uint64(e.Map[ed.V])
		d := mathbits.OnesCount64(diff)
		if st.loads != nil {
			var code uint8
			if e.Routes != nil {
				code = e.Routes[routeSlot(ed, dims, tree)]
			}
			if code == 0 {
				// Walk the e-cube route bit by bit: each differing bit is
				// one link, whose lower endpoint is cur with that bit
				// cleared.  No path or link values are materialized.
				for ; diff != 0; diff &= diff - 1 {
					bit := diff & -diff
					st.addLoad(flipLink(cur, bit, n))
					cur ^= bit
				}
			} else {
				st.addRoute(cur, diff, code, n)
			}
		}
		if d > st.maxDil {
			st.maxDil = d
		}
		axisSum[ed.Axis] += int64(d)
		axisCnt[ed.Axis]++
	}
	nodes := e.Guest.Nodes()
	switch e.Family {
	case guest.Mesh:
		e.Guest.EachEdgeRange(0, nodes, visit)
	case guest.Torus:
		e.Guest.EachTorusEdgeRange(0, nodes, visit)
	case guest.Cylinder:
		e.Guest.EachCylinderEdgeRange(0, nodes, visit)
	case guest.Tree:
		e.Guest.EachTreeEdgeRange(0, nodes, visit)
	default:
		panic(fmt.Sprintf("embed: no fused edge enumeration for guest family %v", e.Family))
	}
	for i := range axisSum {
		st.edges += axisCnt[i]
		st.dilSum += axisSum[i]
	}
}

// MeasureCtx is Measure with observability: when ctx carries an active obs
// span the whole computation runs under a "measure" child span whose
// subtree records the fused pass.  Metrics are bit-identical to Measure's
// either way.
func (e *Embedding) MeasureCtx(ctx context.Context) Metrics {
	mctx, span := obs.Start(ctx, "measure")
	st := e.fusedPass(mctx, true)
	m := Metrics{
		Guest:      e.Guest.String(),
		Family:     e.Family.String(),
		Wrap:       e.Family == guest.Torus,
		CubeDim:    e.N,
		Expansion:  e.Expansion(),
		Minimal:    e.Minimal(),
		Dilation:   st.maxDil,
		Wirelength: st.dilSum,
		Congestion: st.maxLoad,
		LoadFactor: e.LoadFactor(),
	}
	if st.edges > 0 {
		m.AvgDilation = float64(st.dilSum) / float64(st.edges)
	}
	if len(st.loads) > 0 {
		// Every realized path of length d crosses exactly d links, so the
		// total load is the dilation sum.
		m.AvgCongestion = float64(st.dilSum) / float64(len(st.loads))
	}
	if span != nil {
		span.SetAttr("guest", m.Guest)
		span.SetAttr("cube_dim", m.CubeDim)
		span.SetAttr("edges", st.edges)
		span.End()
	}
	return m
}
