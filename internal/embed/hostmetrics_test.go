package embed

import (
	"testing"

	"repro/internal/host"
)

// TestMeasureOnHostAgreesWithFused pins the host seam's reference
// semantics: measuring through the generic Host interface with the
// BooleanCube implementation must agree bit for bit with the fused
// cube-specialized engine, on every guest family in the metrics test set
// (mesh, torus, cylinder, tree, pinned paths).
func TestMeasureOnHostAgreesWithFused(t *testing.T) {
	bc := host.BooleanCube{}
	for name, e := range metricsTestEmbeddings() {
		got, want := e.MeasureOnHost(bc), e.Measure()
		if got != want {
			t.Errorf("%s:\n host  %+v\n fused %+v", name, got, want)
		}
	}
}

// TestBooleanCubeHostContract spot-checks the Host implementation details
// the generic engine relies on: u→u routes as {u}, neighbor count, and
// canonicalization mapping node 0 to address 0 without changing distances.
func TestBooleanCubeHostContract(t *testing.T) {
	bc := host.BooleanCube{}
	const n = 4
	if got := bc.Route(5, 5, n); len(got) != 1 || got[0] != 5 {
		t.Errorf("Route(u,u) = %v, want {u}", got)
	}
	for u := host.Node(0); u < host.Node(bc.Nodes(n)); u++ {
		deg := 0
		bc.Neighbors(u, n, func(v host.Node) {
			deg++
			if bc.Dist(u, v, n) != 1 {
				t.Fatalf("neighbor %v of %v at distance %d", v, u, bc.Dist(u, v, n))
			}
		})
		if deg != n {
			t.Fatalf("node %v has degree %d, want %d", u, deg, n)
		}
	}
	m := []host.Node{6, 3, 12, 9}
	canon := bc.Canonicalize(m, n)
	if canon[0] != 0 {
		t.Errorf("Canonicalize did not map node 0 to address 0: %v", canon)
	}
	for i := range m {
		for j := range m {
			if bc.Dist(m[i], m[j], n) != bc.Dist(canon[i], canon[j], n) {
				t.Errorf("Canonicalize changed distance between %d and %d", i, j)
			}
		}
	}
	if bc.MinSize(1) != 0 || bc.MinSize(2) != 1 || bc.MinSize(5) != 3 || bc.MinSize(8) != 3 {
		t.Error("MinSize is not the ceiling log2")
	}
}
