package core

import (
	"math/rand"
	"testing"

	"repro/internal/cube"
	"repro/internal/embed"
	"repro/internal/guest"
	"repro/internal/mesh"
	"repro/internal/solver"
)

func TestProductOfGrays(t *testing.T) {
	// Gray(3x5) ⊗ Gray(4x4) embeds 12x20; dilation must stay 1.
	e1 := embed.Gray(mesh.Shape{3, 5})
	e2 := embed.Gray(mesh.Shape{4, 4})
	p := Product(e1, e2)
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	if !p.Guest.Equal(mesh.Shape{12, 20}) {
		t.Fatalf("guest = %v", p.Guest)
	}
	if p.N != e1.N+e2.N {
		t.Fatalf("cube dim = %d", p.N)
	}
	if d := p.Dilation(); d != 1 {
		t.Errorf("dilation = %d, want 1", d)
	}
}

func TestProductDilationLaw(t *testing.T) {
	// Theorem 3: dil(φ1×φ2) ≤ max(dil φ1, dil φ2), on random small factors.
	r := rand.New(rand.NewSource(7))
	shapes := []mesh.Shape{{3}, {2, 2}, {3, 2}, {5}, {2, 3}}
	for trial := 0; trial < 40; trial++ {
		s1 := shapes[r.Intn(len(shapes))]
		s2 := shapes[r.Intn(len(shapes))]
		e1 := randomEmbedding(r, s1)
		e2 := randomEmbedding(r, s2)
		p := Product(e1, e2)
		if err := p.Verify(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		d1, d2 := e1.Dilation(), e2.Dilation()
		max := d1
		if d2 > max {
			max = d2
		}
		if d := p.Dilation(); d > max {
			t.Errorf("trial %d: product dilation %d > max(%d,%d)", trial, d, d1, d2)
		}
	}
}

// randomEmbedding builds a random injective map of the shape into a cube
// with one extra dimension (so there is room for bad dilation).
func randomEmbedding(r *rand.Rand, s mesh.Shape) *embed.Embedding {
	n := s.MinCubeDim() + 1
	e := embed.New(s, n)
	perm := r.Perm(1 << uint(n))
	for i := range e.Map {
		e.Map[i] = cube.Node(perm[i])
	}
	return e
}

func TestProductExpansionMultiplies(t *testing.T) {
	e1 := embed.Gray(mesh.Shape{3}) // 3 -> 2-cube, exp 4/3
	e2 := embed.Gray(mesh.Shape{5}) // 5 -> 3-cube, exp 8/5
	p := Product(e1, e2)
	want := e1.Expansion() * e2.Expansion()
	if got := p.Expansion(); got != want {
		t.Errorf("expansion = %v, want %v", got, want)
	}
}

func TestProductReflectionSeam(t *testing.T) {
	// Embed 9 = 3·3 as path(3) ⊗ path(3): inner Gray on 3 (2 bits), outer
	// Gray on 3 (2 bits).  Without reflection the seam edges (z=2→3, z=5→6)
	// would pay inner distance; with φ̃ they cost exactly the outer step.
	e1 := embed.Gray(mesh.Shape{3})
	e2 := embed.Gray(mesh.Shape{3})
	p := Product(e1, e2)
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	if d := p.Dilation(); d != 1 {
		t.Errorf("9-node path via product has dilation %d, want 1", d)
	}
	// Explicit seam check: z=2 and z=3 must be cube neighbors.
	if cube.Dist(p.Map[2], p.Map[3]) != 1 {
		t.Errorf("seam 2-3 at distance %d", cube.Dist(p.Map[2], p.Map[3]))
	}
}

func TestProductCongestionWithPinnedPaths(t *testing.T) {
	// A dilation-2 factor with congestion-2 realization keeps congestion ≤ 2
	// in the product with a Gray factor (Theorem 3).
	f := solver.Find(mesh.Shape{3, 5}, solver.Options{MaxDilation: 2, Seed: 3})
	if f == nil {
		t.Skip("solver failed to find 3x5")
	}
	f.RealizeMinCongestion()
	cf := f.Congestion()
	g := embed.Gray(mesh.Shape{4, 4})
	p := Product(f, g)
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	if p.Dilation() > 2 {
		t.Errorf("dilation %d", p.Dilation())
	}
	want := cf
	if want < 1 {
		want = 1
	}
	if c := p.Congestion(); c > want {
		t.Errorf("product congestion %d > max factor congestion %d", c, want)
	}
}

func TestProductPathsStayInCopies(t *testing.T) {
	// With pinned factor routes, every product route must stay within one
	// copy: inner-edge routes keep the high bits constant, seam routes keep
	// the low bits constant.
	f := solver.Find(mesh.Shape{3, 5}, solver.Options{MaxDilation: 2, Seed: 3})
	if f == nil {
		t.Skip("solver failed")
	}
	f.RealizeMinCongestion()
	g := embed.Gray(mesh.Shape{2, 2})
	p := Product(f, g)
	if p.Routes == nil {
		t.Fatal("expected lifted route codes")
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	n1 := f.N
	loMask := uint64(1)<<uint(n1) - 1
	p.Guest.EachEdge(func(ed mesh.Edge) {
		path := meshRoute(p, ed)
		hiSame, loSame := true, true
		for _, node := range path {
			if uint64(node)>>uint(n1) != uint64(path[0])>>uint(n1) {
				hiSame = false
			}
			if uint64(node)&loMask != uint64(path[0])&loMask {
				loSame = false
			}
		}
		if !hiSame && !loSame {
			t.Fatalf("route for edge %v leaves its copy: %v", ed, path)
		}
	})
}

// meshRoute materializes the route of a mesh edge: its code's entry in the
// cube.ShortestPaths rank order, or the e-cube route for code 0.
func meshRoute(e *embed.Embedding, ed mesh.Edge) cube.Path {
	a, b := e.Map[ed.U], e.Map[ed.V]
	if c := e.MeshRoute(ed.U, ed.Axis); c != 0 {
		return cube.ShortestPaths(a, b)[c]
	}
	return cube.Route(a, b)
}

func TestProductArityPadding(t *testing.T) {
	// 1D ⊗ 2D: shapes are aligned with trailing 1s.
	e1 := embed.Gray(mesh.Shape{3})
	e2 := embed.Gray(mesh.Shape{1, 5})
	p := Product(e1, e2)
	if !p.Guest.Equal(mesh.Shape{3, 5}) {
		t.Fatalf("guest = %v", p.Guest)
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	if p.Dilation() != 1 {
		t.Errorf("dilation = %d", p.Dilation())
	}
}

func TestSubMesh(t *testing.T) {
	// 3x25x3 is planned as (3x5x1) ⊗ (1x5x3) = 3x25x3; a 3x23x3 target is
	// a submesh of it.
	e1 := embed.Gray(mesh.Shape{3, 5, 1})
	e2 := embed.Gray(mesh.Shape{1, 5, 3})
	p := Product(e1, e2)
	sub := SubMesh(p, mesh.Shape{3, 23, 3})
	if err := sub.Verify(); err != nil {
		t.Fatal(err)
	}
	if sub.Dilation() > p.Dilation() {
		t.Errorf("submesh dilation %d > %d", sub.Dilation(), p.Dilation())
	}
	if sub.N != p.N {
		t.Errorf("cube dim changed")
	}
}

func TestSubMeshPanicsOnBadTarget(t *testing.T) {
	e := embed.Gray(mesh.Shape{3, 5})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	SubMesh(e, mesh.Shape{4, 5})
}

func TestProductPanicsOnWrap(t *testing.T) {
	e1 := embed.Gray(mesh.Shape{4})
	e1.Family = guest.Torus
	e2 := embed.Gray(mesh.Shape{4})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Product(e1, e2)
}

func TestProductAvgDilationFormulaDirection(t *testing.T) {
	// Section 4.1: the average dilation of the product decreases as the
	// inner (dilation-one) factor's axes lengthen.
	d2 := solver.Find(mesh.Shape{3, 5}, solver.Options{MaxDilation: 2, Seed: 3})
	if d2 == nil {
		t.Skip("solver failed")
	}
	small := Product(embed.Gray(mesh.Shape{2, 2}), d2)
	big := Product(embed.Gray(mesh.Shape{8, 8}), d2)
	if !(big.AvgDilation() < small.AvgDilation()) {
		t.Errorf("avg dilation should shrink with inner axis length: small=%v big=%v",
			small.AvgDilation(), big.AvgDilation())
	}
}

func BenchmarkProduct(b *testing.B) {
	e1 := embed.Gray(mesh.Shape{3, 5})
	e2 := embed.Gray(mesh.Shape{16, 16})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Product(e1, e2)
	}
}
