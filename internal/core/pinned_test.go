package core

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/mesh"
)

// pinnedKernelShapes are the heaviest pinned-route plans of the cold embed
// path: products and submeshes over direct factors.
var pinnedKernelShapes = []mesh.Shape{{2, 22, 5557}, {7, 96, 337}}

// TestPinnedBuildMemory bounds the bytes allocated by building, verifying
// and measuring the 2x22x5557 plan.  The route table costs one byte per
// guest-edge slot and a link load one byte per host link, so the total is
// dominated by the node maps (7.5 MiB measured; 15.2 MiB with four-byte
// link loads).
func TestPinnedBuildMemory(t *testing.T) {
	p := PlanShape(mesh.Shape{2, 22, 5557}, DefaultOptions)
	const limit = 10 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e := p.Build()
	if err := e.Verify(); err != nil {
		t.Fatal(err)
	}
	m := e.Measure()
	runtime.ReadMemStats(&after)
	if m.Congestion != 2 {
		t.Errorf("%s: congestion %d, want 2", p, m.Congestion)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%s: Build+Verify+Measure allocated %.2f MiB", p, float64(got)/(1<<20))
	if got > limit {
		t.Errorf("allocated %d bytes, limit %d", got, limit)
	}
}

// BenchmarkBuildPinned times Build + Verify + Measure of the pinned-route
// kernel plans; the plan itself is computed once outside the timer.
func BenchmarkBuildPinned(b *testing.B) {
	for _, s := range pinnedKernelShapes {
		p := PlanShape(s, DefaultOptions)
		b.Run(s.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := p.Build()
				if err := e.Verify(); err != nil {
					b.Fatal(err)
				}
				if m := e.Measure(); m.Congestion < 1 {
					b.Fatalf("metrics: %s", m)
				}
			}
		})
	}
}

// TestCongestionWithinBound sweeps three-dimensional shapes and checks that
// every plan with a known congestion bound builds an embedding within it.
// Fold plans inherit the bound of their child, so unfold must carry the
// child's routes over.
func TestCongestionWithinBound(t *testing.T) {
	pl := NewPlanner(DefaultOptions)
	checked, folds := 0, 0
	for a := 1; a <= 24; a++ {
		for b := a; b <= 40; b++ {
			for c := b; c <= 300 && a*b*c <= 1<<11; c++ {
				p := pl.Plan(mesh.Shape{a, b, c})
				bound := p.CongestionBound()
				if bound == CongestionUnknown {
					continue
				}
				checked++
				if strings.Contains(p.String(), "↷") {
					folds++
				}
				if got := p.Build().Congestion(); got > bound {
					t.Errorf("%s: congestion %d above its bound %d", p, got, bound)
				}
			}
		}
	}
	t.Logf("%d plans with a known bound, %d of them folds", checked, folds)
}
