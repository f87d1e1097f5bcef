package embed

import (
	"context"
	"fmt"
	mathbits "math/bits"
	"sync/atomic"
	"time"

	"repro/internal/cube"
	"repro/internal/guest"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// The fused metrics engine: one traversal of the guest edge set computes
// every edge-derived quantity of Metrics (dilation, average dilation,
// per-axis average dilation, link loads, congestion, average congestion) at
// once, sharded over contiguous guest-node blocks via the internal/sweep
// worker pool.  All tallies are integers: the scalar and per-axis partials
// are merged in block order, and the link loads of a multi-worker pass go
// into one shared vector by atomic adds, so every worker count produces
// bit-identical metrics and a pass holds one load vector whatever its
// worker count.  Every edge walks its route bit by bit, accumulating
// cube.LinkIndex directly, and touches no heap at all: an unpinned edge
// flips its differing bits in ascending order (e-cube), a pinned edge in
// the order its route code names.  Dilation-only passes skip the walk —
// every route is shortest, so an edge's dilation is its cube distance.

const (
	// parallelEdgeThreshold is the guest edge count below which implicit
	// metric calls run the fused pass on the caller's goroutine: for small
	// meshes worker startup would dominate.
	parallelEdgeThreshold = 1 << 14

	// denseNodeLimit bounds the dense []int32 tables (size 2^N) used by
	// Verify and LoadFactor; larger cubes fall back to maps.
	denseNodeLimit = 1 << 22
)

// edgeStats holds the integer tallies of a fused pass over (a block of) the
// guest edge set.
type edgeStats struct {
	edges   int64
	dilSum  int64 // Σ edge dilation == Σ realized path length == Σ loads
	maxDil  int
	axisSum []int64 // per guest axis, for AxisAvgDilation
	axisCnt []int64
	loads   []int32 // per cube.LinkIndex; nil when loads were not requested
	shared  bool    // loads is shared with concurrent workers: add atomically
}

func newEdgeStats(axes int, loads []int32, shared bool) edgeStats {
	return edgeStats{axisSum: make([]int64, axes), axisCnt: make([]int64, axes), loads: loads, shared: shared}
}

// merge folds part's scalar and per-axis tallies into st; all are
// order-independent integers.  The loads need no merge: the workers of one
// pass add into the same vector.
func (st *edgeStats) merge(part edgeStats) {
	st.edges += part.edges
	st.dilSum += part.dilSum
	if part.maxDil > st.maxDil {
		st.maxDil = part.maxDil
	}
	for i := range st.axisSum {
		st.axisSum[i] += part.axisSum[i]
		st.axisCnt[i] += part.axisCnt[i]
	}
}

// addLoad counts one traversal of link i.
func (st *edgeStats) addLoad(i int) {
	if st.shared {
		atomic.AddInt32(&st.loads[i], 1)
	} else {
		st.loads[i]++
	}
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

// autoWorkers picks the worker count for implicit metric calls: serial for
// small edge sets, GOMAXPROCS for large ones.
func (e *Embedding) autoWorkers() int {
	if e.NumGuestEdges() < parallelEdgeThreshold {
		return 1
	}
	return 0
}

// fusedPass runs the fused edge traversal.  workers < 1 selects the
// automatic policy; an explicit count is honored as-is (the result is
// identical either way).  wantLoads controls whether the per-link load
// vector is accumulated — dilation-only callers skip it.  The pass
// allocates at most one load vector: with w > 1 workers they all add into
// it atomically.
//
// When ctx carries an active obs span the pass runs under a "fused-pass"
// child span with one "shard N" span per node block (nested under the sweep
// worker that processed it).  When it does not — the hot path — the only
// extra cost is one atomic load plus a context lookup, and the traversal
// runs the exact same closure over sweep.Map as before, so allocation
// counts are unchanged.
func (e *Embedding) fusedPass(ctx context.Context, workers int, wantLoads bool) edgeStats {
	if workers < 1 {
		workers = e.autoWorkers()
	}
	w := sweep.Workers(workers)
	nodes := e.Guest.Nodes()
	if w > nodes {
		w = nodes
	}
	axes := e.Guest.Dims()
	var loads []int32
	if wantLoads {
		loads = make([]int32, cube.NumLinks(e.N))
	}
	sctx, span := obs.Start(ctx, "fused-pass")
	if span == nil {
		if w == 1 {
			st := newEdgeStats(axes, loads, false)
			e.scanBlock(0, nodes, &st)
			return st
		}
		// One contiguous node block per worker; block b generates the edges
		// of nodes [b·nodes/w, (b+1)·nodes/w), so the blocks partition the
		// edge set (see mesh.EachEdgeRange).
		parts := sweep.Map(w, w, func(b int) edgeStats {
			st := newEdgeStats(axes, loads, true)
			e.scanBlock(b*nodes/w, (b+1)*nodes/w, &st)
			return st
		})
		acc := parts[0]
		for _, part := range parts[1:] {
			acc.merge(part)
		}
		return acc
	}
	defer span.End()
	span.SetAttr("shards", w)
	span.SetAttr("want_loads", wantLoads)
	if w == 1 {
		st := newEdgeStats(axes, loads, false)
		t0 := time.Now()
		e.scanBlock(0, nodes, &st)
		span.SetAttr("scan_ns", time.Since(t0).Nanoseconds())
		span.SetAttr("edges", st.edges)
		return st
	}
	parts := sweep.MapCtx(sctx, w, w, func(wctx context.Context, b int) edgeStats {
		lo, hi := b*nodes/w, (b+1)*nodes/w
		_, sp := obs.Start(wctx, fmt.Sprintf("shard %d", b))
		sp.SetAttr("nodes_lo", lo)
		sp.SetAttr("nodes_hi", hi)
		st := newEdgeStats(axes, loads, true)
		e.scanBlock(lo, hi, &st)
		sp.SetAttr("edges", st.edges)
		sp.End()
		return st
	})
	acc := parts[0]
	for _, part := range parts[1:] {
		acc.merge(part)
	}
	span.SetAttr("edges", acc.edges)
	return acc
}

// scanBlock tallies the edges generated by guest nodes [lo, hi) into st.
//
// Every registered family dispatches through a direct method call so the
// visit closure stays on the stack: escape analysis only trusts the "fn
// does not escape" summary of a known callee, and the analysis is
// flow-insensitive, so even one indirect registry call in a reachable
// branch would heap-spill the closure for every family.  The branches call
// the exact enumerations the registry registers — the measureOnHost test
// oracle, which does go through the registry, pins the agreement — and a
// family without a branch here is a programming error.
func (e *Embedding) scanBlock(lo, hi int, st *edgeStats) {
	n, dims, tree := e.N, e.Guest.Dims(), e.Family == guest.Tree
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
		st.edges++
		st.dilSum += int64(d)
		if d > st.maxDil {
			st.maxDil = d
		}
		st.axisSum[ed.Axis] += int64(d)
		st.axisCnt[ed.Axis]++
	}
	switch e.Family {
	case guest.Mesh:
		e.Guest.EachEdgeRange(lo, hi, visit)
	case guest.Torus:
		e.Guest.EachTorusEdgeRange(lo, hi, visit)
	case guest.Cylinder:
		e.Guest.EachCylinderEdgeRange(lo, hi, visit)
	case guest.Tree:
		e.Guest.EachTreeEdgeRange(lo, hi, visit)
	default:
		panic(fmt.Sprintf("embed: no fused edge enumeration for guest family %v", e.Family))
	}
}

// MeasureParallel computes all metrics with an explicit worker count
// (< 1 means the automatic policy of Measure).  Because the fused pass
// accumulates integers only, the result is bit-identical for every worker
// count; the memory it takes is one load vector, 4·N·2^(N−1) bytes, for
// every worker count.
func (e *Embedding) MeasureParallel(workers int) Metrics {
	return e.MeasureParallelCtx(context.Background(), workers)
}

// MeasureParallelCtx is MeasureParallel with observability: when ctx carries
// an active obs span the whole computation runs under a "measure" child span
// whose subtree records the fused pass, its sweep workers and per-shard
// timings.  Metrics are bit-identical to MeasureParallel's either way.
func (e *Embedding) MeasureParallelCtx(ctx context.Context, workers int) Metrics {
	mctx, span := obs.Start(ctx, "measure")
	st := e.fusedPass(mctx, workers, true)
	m := Metrics{
		Guest:      e.Guest.String(),
		Family:     e.Family.String(),
		Wrap:       e.Family == guest.Torus,
		CubeDim:    e.N,
		Expansion:  e.Expansion(),
		Minimal:    e.Minimal(),
		Dilation:   st.maxDil,
		Wirelength: st.dilSum,
		LoadFactor: e.LoadFactor(),
	}
	if st.edges > 0 {
		m.AvgDilation = float64(st.dilSum) / float64(st.edges)
	}
	for _, c := range st.loads {
		if int(c) > m.Congestion {
			m.Congestion = int(c)
		}
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
