package core

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/mesh"
)

// plansAgree compares the fields /v1/plan and the artifact serve from a
// plan: the rendered tree, kind, family, cube dimension, dilation bound and
// method.  Claimed plans are leaves, so this is full structural equality.
func plansAgree(p, q *Plan) bool {
	return p.Kind == q.Kind && p.Family == q.Family && p.CubeDim == q.CubeDim &&
		p.Dilation == q.Dilation && p.Method == q.Method &&
		p.Shape.Equal(q.Shape) && p.String() == q.String()
}

// classifyBound is the exhaustive-parity bound per axis: the full ≤ 2⁹
// domain of the acceptance criterion, trimmed under -short.
func classifyBound(t *testing.T) int {
	if testing.Short() {
		return 64
	}
	return 512
}

// TestClassifyParityMesh checks the claim contract exhaustively on meshes:
// every sorted 3-D shape with axes ≤ 2⁹ (the full plan-census domain), plus
// 1-D/2-D ranges.  Claimed shapes must reproduce the planner's plan
// exactly; parity on unsorted axis orders is covered separately.
func TestClassifyParityMesh(t *testing.T) {
	bound := classifyBound(t)
	pc := newPlanContext(DefaultOptions, nil, false)
	claimed, checked := 0, 0
	check := func(s mesh.Shape) {
		checked++
		p, ok := ClassifyShape(s)
		if !ok {
			return
		}
		claimed++
		if got := pc.planTop(s); !plansAgree(p, got) {
			t.Fatalf("ClassifyShape(%v) = %v (dil %d method %d cube %d), planner says %v (dil %d method %d cube %d)",
				s, p, p.Dilation, p.Method, p.CubeDim, got, got.Dilation, got.Method, got.CubeDim)
		}
	}
	for a := 1; a <= bound; a++ {
		check(mesh.Shape{a})
		for b := a; b <= bound; b++ {
			check(mesh.Shape{a, b})
			for c := b; c <= bound; c++ {
				check(mesh.Shape{a, b, c})
			}
		}
	}
	if claimed == 0 || claimed == checked {
		t.Fatalf("degenerate parity run: %d of %d shapes claimed", claimed, checked)
	}
	t.Logf("mesh parity: %d of %d shapes claimed and verified", claimed, checked)
}

// TestClassifyParityGuests checks the guest families against the uncached
// family planner: every canonical torus/cylinder up to a 3-D bound and
// every tree up to 2²⁰−1 nodes.
func TestClassifyParityGuests(t *testing.T) {
	bound := 64
	if testing.Short() {
		bound = 24
	}
	for _, fam := range []guest.Family{guest.Torus, guest.Cylinder} {
		claimed, checked := 0, 0
		for _, dims := range []int{1, 2, 3} {
			for _, s := range FamilyShapes(fam, dims, bound, 1<<30) {
				checked++
				p, ok := ClassifyGuest(fam, s)
				if !ok {
					continue
				}
				claimed++
				got, err := PlanGuest(fam, s, DefaultOptions)
				if err != nil {
					t.Fatalf("PlanGuest(%v, %v): %v", fam, s, err)
				}
				if !plansAgree(p, got) {
					t.Fatalf("ClassifyGuest(%v, %v) = %v, planner says %v", fam, s, p, got)
				}
			}
		}
		if claimed == 0 {
			t.Fatalf("family %v: nothing claimed of %d shapes", fam, checked)
		}
		t.Logf("%v parity: %d of %d claimed and verified", fam, claimed, checked)
	}
	for h := 0; h <= 20; h++ {
		s := mesh.Shape{1<<uint(h+1) - 1}
		p, ok := ClassifyGuest(guest.Tree, s)
		if !ok {
			t.Fatalf("tree %v not claimed", s)
		}
		got, err := PlanGuest(guest.Tree, s, DefaultOptions)
		if err != nil {
			t.Fatal(err)
		}
		if !plansAgree(p, got) {
			t.Fatalf("ClassifyGuest(tree, %v) = %v, planner says %v", s, p, got)
		}
	}
}

// TestClassifyParityPermuted checks caller-axis-order parity through the
// caching Planner (the exact objects the server substitutes for each
// other): all permutations of a sampled shape set.
func TestClassifyParityPermuted(t *testing.T) {
	pl := NewPlanner(DefaultOptions)
	shapes := []mesh.Shape{
		{4, 2, 8}, {8, 2, 4}, {16, 3, 4}, {5, 2, 2}, {2, 5, 2},
		{64, 2, 1}, {1, 32, 2}, {128, 4, 2}, {3, 4, 16}, {7, 2, 32},
	}
	for _, fam := range []guest.Family{guest.Mesh, guest.Torus, guest.Cylinder} {
		for _, s := range shapes {
			if guest.Validate(fam, s) != nil {
				continue
			}
			p, ok := ClassifyGuest(fam, s)
			if !ok {
				continue
			}
			got, err := pl.TryPlanGuest(fam, s)
			if err != nil {
				t.Fatalf("TryPlanGuest(%v, %v): %v", fam, s, err)
			}
			if !plansAgree(p, got) {
				t.Fatalf("ClassifyGuest(%v, %v) = %v, Planner says %v", fam, s, p, got)
			}
		}
	}
}

// BenchmarkClassifyShape measures the per-shape closed-form classifier on
// the sorted 3-D shapes with axes ≤ 64 (claimed and unclaimed mixed) —
// one op is one shape.
func BenchmarkClassifyShape(b *testing.B) {
	var shapes []mesh.Shape
	for a := 1; a <= 64; a++ {
		shapes = append(shapes, SortedShapesFrom(a, 3, 64, 1<<30)...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ClassifyShape(shapes[i%len(shapes)])
	}
}
