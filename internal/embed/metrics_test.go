package embed

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/cube"
	"repro/internal/guest"
	"repro/internal/mesh"
)

// referenceMeasure recomputes Metrics the way the pre-fusion implementation
// did: one independent traversal per metric, paths materialized per edge
// (pinned routes through the cube.ShortestPaths rank order).
// It is the oracle the fused engine must match bit for bit.
func referenceMeasure(e *Embedding) Metrics {
	edges := 0
	dilSum := 0
	maxDil := 0
	loads := make([]int, cube.NumLinks(e.N))
	visit := func(ed mesh.Edge) {
		d := e.EdgeDilation(ed.U, ed.V)
		edges++
		dilSum += d
		if d > maxDil {
			maxDil = d
		}
		p := routePath(e, ed)
		if p.Len() != d {
			panic("embed: reference route is not shortest")
		}
		for _, l := range p.Links() {
			loads[cube.LinkIndex(l, e.N)]++
		}
	}
	switch e.Family {
	case guest.Torus:
		e.Guest.EachTorusEdge(visit)
	case guest.Cylinder:
		e.Guest.EachCylinderEdge(visit)
	case guest.Tree:
		e.Guest.EachTreeEdge(visit)
	default:
		e.Guest.EachEdge(visit)
	}
	m := Metrics{
		Guest:      e.Guest.String(),
		Family:     e.Family.String(),
		Wrap:       e.Family == guest.Torus,
		CubeDim:    e.N,
		Expansion:  e.Expansion(),
		Minimal:    e.Minimal(),
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
	for _, h := range e.Map {
		counts[h]++
		if counts[h] > m.LoadFactor {
			m.LoadFactor = counts[h]
		}
	}
	return m
}

// metricsTestEmbeddings builds a grid of embeddings covering the engine's
// branches: Gray meshes of several arities, wraparound guests, and
// pinned-route embeddings from RealizeMinCongestion.
func metricsTestEmbeddings() map[string]*Embedding {
	out := map[string]*Embedding{
		"gray-17":        Gray(mesh.Shape{17}),
		"gray-3x5":       Gray(mesh.Shape{3, 5}),
		"gray-5x6x7":     Gray(mesh.Shape{5, 6, 7}),
		"gray-2x3x4x5":   Gray(mesh.Shape{2, 3, 4, 5}),
		"gray-16x16":     Gray(mesh.Shape{16, 16}),
		"identity":       Identity(),
		"pinned":         benchPinned(),
		"pinned-9x10x12": pinnedIdentity(mesh.Shape{9, 10, 12}),
	}
	torus := Gray(mesh.Shape{6, 10})
	torus.Family = guest.Torus
	out["torus-6x10"] = torus
	ring := GrayRing(8)
	out["ring-8"] = ring
	scrambledTorus := Gray(mesh.Shape{5, 7})
	scrambledTorus.Family = guest.Torus
	scrambledTorus.RealizeMinCongestion()
	out["torus-5x7-pinned"] = scrambledTorus
	cyl := Gray(mesh.Shape{3, 4, 8})
	cyl.Family = guest.Cylinder
	out["cylinder-3x4x8"] = cyl
	out["tree-31"] = TreeInorder(mesh.Shape{31})
	return out
}

func TestFusedMatchesReference(t *testing.T) {
	for name, e := range metricsTestEmbeddings() {
		want := referenceMeasure(e)
		if got := e.Measure(); got != want {
			t.Errorf("%s: fused %v != reference %v", name, got, want)
		}
	}
}

// measureConcurrently measures every embedding on its own goroutine — the
// way the server runs one Measure per request — and checks each result
// against the measureOnHost oracle.
func measureConcurrently(t *testing.T, es map[string]*Embedding) {
	t.Helper()
	got := make(map[string]Metrics, len(es))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for name, e := range es {
		wg.Add(1)
		go func(name string, e *Embedding) {
			defer wg.Done()
			m := e.Measure()
			mu.Lock()
			got[name] = m
			mu.Unlock()
		}(name, e)
	}
	wg.Wait()
	for name, e := range es {
		if want := e.measureOnHost(); got[name] != want {
			t.Errorf("%s: concurrent Measure %+v, oracle %+v", name, got[name], want)
		}
	}
}

// TestMeasureParallelEquivalence runs the metrics test set's Measures in
// parallel, one goroutine each, against the oracle.
func TestMeasureParallelEquivalence(t *testing.T) {
	measureConcurrently(t, metricsTestEmbeddings())
}

// TestMeasureParallelLargeMesh runs the 24x24x24 Gray mesh (~40k edges
// into a 15-cube) and its torus and cylinder readings in parallel.
func TestMeasureParallelLargeMesh(t *testing.T) {
	s := mesh.Shape{24, 24, 24}
	es := map[string]*Embedding{"gray-24x24x24": Gray(s)}
	for _, f := range []guest.Family{guest.Torus, guest.Cylinder} {
		e := Gray(s)
		e.Family = f
		es[f.String()+"-24x24x24"] = e
	}
	measureConcurrently(t, es)
}

// TestPerMetricWrappersMatchMeasure pins the thin-wrapper contract: each
// legacy per-metric method must agree with the fused Measure.
func TestPerMetricWrappersMatchMeasure(t *testing.T) {
	for name, e := range metricsTestEmbeddings() {
		m := e.Measure()
		if d := e.Dilation(); d != m.Dilation {
			t.Errorf("%s: Dilation %d != %d", name, d, m.Dilation)
		}
		if d := e.AvgDilation(); d != m.AvgDilation {
			t.Errorf("%s: AvgDilation %v != %v", name, d, m.AvgDilation)
		}
		if c := e.Congestion(); c != m.Congestion {
			t.Errorf("%s: Congestion %d != %d", name, c, m.Congestion)
		}
		if c := e.AvgCongestion(); c != m.AvgCongestion {
			t.Errorf("%s: AvgCongestion %v != %v", name, c, m.AvgCongestion)
		}
		if l := e.LoadFactor(); l != m.LoadFactor {
			t.Errorf("%s: LoadFactor %d != %d", name, l, m.LoadFactor)
		}
	}
}

// TestLinkLoadsMatchesCongestion checks LinkLoads against Congestion and
// the total-load == dilation-sum identity the engine relies on.
func TestLinkLoadsMatchesCongestion(t *testing.T) {
	for name, e := range metricsTestEmbeddings() {
		loads := e.LinkLoads()
		max, sum := 0, 0
		for _, c := range loads {
			if c > max {
				max = c
			}
			sum += c
		}
		if max != e.Congestion() {
			t.Errorf("%s: max load %d != congestion %d", name, max, e.Congestion())
		}
		if nl := cube.NumLinks(e.N); nl > 0 {
			if avg := float64(sum) / float64(nl); avg != e.AvgCongestion() {
				t.Errorf("%s: avg load %v != avg congestion %v", name, avg, e.AvgCongestion())
			}
		}
	}
}

// TestAxisAvgDilationFused checks the per-axis tallies against the direct
// per-axis recomputation, including out-of-range axes.
func TestAxisAvgDilationFused(t *testing.T) {
	for name, e := range metricsTestEmbeddings() {
		for axis := 0; axis < e.Guest.Dims(); axis++ {
			sum, cnt := 0, 0
			e.eachGuestEdge(func(ed mesh.Edge) {
				if ed.Axis == axis {
					sum += e.EdgeDilation(ed.U, ed.V)
					cnt++
				}
			})
			want := 0.0
			if cnt > 0 {
				want = float64(sum) / float64(cnt)
			}
			if got := e.AxisAvgDilation(axis); got != want {
				t.Errorf("%s axis %d: %v != %v", name, axis, got, want)
			}
		}
		if got := e.AxisAvgDilation(e.Guest.Dims() + 3); got != 0 {
			t.Errorf("%s: out-of-range axis gave %v", name, got)
		}
		if got := e.AxisAvgDilation(-1); got != 0 {
			t.Errorf("%s: negative axis gave %v", name, got)
		}
	}
}

// TestConcurrentMeasureSharedEmbedding hammers shared Embeddings (with
// pinned routes, so concurrent route-table reads are exercised) from many
// goroutines, each running its own passes; run under -race via the
// Makefile race target.
func TestConcurrentMeasureSharedEmbedding(t *testing.T) {
	for _, e := range []*Embedding{benchPinned(), pinnedIdentity(mesh.Shape{9, 10, 12})} {
		want := e.measureOnHost()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					if got := e.Measure(); got != want {
						t.Errorf("%s: concurrent measure diverged: %v != %v", e.Guest, got, want)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestMeasureMemory bounds what one Measure allocates: a byte per host
// link for the loads, a bit per host node for LoadFactor's injectivity
// check, and a little fixed overhead.
func TestMeasureMemory(t *testing.T) {
	e := Gray(mesh.Shape{24, 24, 24})
	limit := uint64(cube.NumLinks(e.N)) + uint64(e.HostNodes())/8 + 16<<10
	e.Measure()
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		e.Measure()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Errorf("run %d: Measure allocated %d bytes, limit %d", i, got, limit)
		} else {
			t.Logf("run %d: %d bytes (limit %d)", i, got, limit)
		}
	}
}

// TestDenseVerifyMatchesMap checks that the dense injectivity check accepts
// and rejects exactly like the map fallback.
func TestDenseVerifyMatchesMap(t *testing.T) {
	e := Gray(mesh.Shape{5, 6, 7})
	if e.HostNodes() > denseNodeLimit {
		t.Fatal("expected dense path")
	}
	if err := e.Verify(); err != nil {
		t.Errorf("valid embedding rejected: %v", err)
	}
	e.Map[17] = e.Map[3] // introduce a collision
	if err := e.Verify(); err == nil {
		t.Error("dense check missed a collision")
	}
}

func TestLoadFactorDenseAndInvalidImages(t *testing.T) {
	e := New(mesh.Shape{3, 3}, 2)
	for i := range e.Map {
		e.Map[i] = cube.Node(i % 3)
	}
	if got := e.LoadFactor(); got != 3 {
		t.Errorf("load = %d, want 3", got)
	}
	// An out-of-cube image must not panic the dense counter.
	e.Map[0] = cube.Node(1 << 30)
	if got := e.LoadFactor(); got != 3 {
		t.Errorf("load with stray image = %d, want 3", got)
	}
}

// TestGrayMetricsClosedForm pins the closed-form Gray row of a mesh
// compare to the measured Gray embedding, field for field, over every
// shape of up to three axes of length ≤ 9 (length-1 and length-2 axes and
// 1x1x1 among them) and a few longer and four-axis shapes.
func TestGrayMetricsClosedForm(t *testing.T) {
	var shapes []mesh.Shape
	for a := 1; a <= 9; a++ {
		shapes = append(shapes, mesh.Shape{a})
		for b := 1; b <= 9; b++ {
			shapes = append(shapes, mesh.Shape{a, b})
			for c := 1; c <= 9; c++ {
				shapes = append(shapes, mesh.Shape{a, b, c})
			}
		}
	}
	shapes = append(shapes, mesh.Shape{1}, mesh.Shape{1, 1, 1, 1}, mesh.Shape{2, 1, 2, 1},
		mesh.Shape{3, 1, 5, 2}, mesh.Shape{33, 2, 17}, mesh.Shape{64, 1, 64}, mesh.Shape{1000})
	for _, s := range shapes {
		if got, want := GrayMetrics(s), Gray(s).Measure(); got != want {
			t.Errorf("%v:\n closed form %+v\n measured    %+v", s, got, want)
		}
	}
}
