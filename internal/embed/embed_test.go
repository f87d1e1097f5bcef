package embed

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cube"
	"repro/internal/guest"
	"repro/internal/mesh"
)

func TestGrayPowerOfTwoPerfect(t *testing.T) {
	for _, s := range []mesh.Shape{{4}, {8, 8}, {2, 4, 8}, {16, 16}} {
		e := Gray(s)
		if err := e.Verify(); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		m := e.Measure()
		if m.Dilation != 1 || m.Expansion != 1 || m.Congestion != 1 || !m.Minimal {
			t.Errorf("%v: %s", s, m)
		}
	}
}

func TestGrayNonPowerOfTwo(t *testing.T) {
	e := Gray(mesh.Shape{3, 5})
	if err := e.Verify(); err != nil {
		t.Fatal(err)
	}
	m := e.Measure()
	if m.Dilation != 1 {
		t.Errorf("Gray dilation %d, want 1", m.Dilation)
	}
	// ⌈3⌉₂⌈5⌉₂ = 32 host nodes for 15 guests: expansion 32/15, not minimal.
	if m.CubeDim != 5 || m.Minimal {
		t.Errorf("unexpected: %s", m)
	}
}

func TestGrayDilationAlwaysOne(t *testing.T) {
	f := func(a, b, c uint8) bool {
		s := mesh.Shape{int(a%9) + 1, int(b%9) + 1, int(c%9) + 1}
		e := Gray(s)
		return e.Verify() == nil && e.Dilation() <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestGrayCongestionOne(t *testing.T) {
	for _, s := range []mesh.Shape{{5, 7}, {3, 3, 3}, {6, 5}} {
		e := Gray(s)
		if c := e.Congestion(); c != 1 {
			t.Errorf("%v: congestion %d, want 1", s, c)
		}
	}
}

func TestGrayRingWraparound(t *testing.T) {
	e := GrayRing(8)
	if err := e.Verify(); err != nil {
		t.Fatal(err)
	}
	if d := e.Dilation(); d != 1 {
		t.Errorf("cyclic Gray ring dilation %d, want 1", d)
	}
}

func TestGrayTorusPowerOfTwo(t *testing.T) {
	e := Gray(mesh.Shape{4, 8})
	e.Family = guest.Torus
	if d := e.Dilation(); d != 1 {
		t.Errorf("power-of-two torus Gray dilation %d, want 1", d)
	}
	if c := e.Congestion(); c > 2 {
		t.Errorf("power-of-two torus Gray congestion %d", c)
	}
}

func TestExpansionAndLoad(t *testing.T) {
	e := New(mesh.Shape{3, 5}, 4)
	for i := range e.Map {
		e.Map[i] = cube.Node(i)
	}
	if e.Expansion() != 16.0/15.0 {
		t.Errorf("expansion = %v", e.Expansion())
	}
	if !e.Minimal() {
		t.Error("should be minimal")
	}
	if e.LoadFactor() != 1 {
		t.Errorf("load = %d", e.LoadFactor())
	}
	if e.OptimalLoadFactor() != 1 {
		t.Errorf("optimal load = %d", e.OptimalLoadFactor())
	}
}

func TestVerifyCatchesCollision(t *testing.T) {
	e := New(mesh.Shape{2, 2}, 2)
	// all map to node 0: collision
	if err := e.Verify(); err == nil {
		t.Error("collision not caught")
	}
	if err := e.VerifyManyToOne(); err != nil {
		t.Errorf("many-to-one should allow collisions: %v", err)
	}
	if e.LoadFactor() != 4 {
		t.Errorf("load = %d, want 4", e.LoadFactor())
	}
}

func TestVerifyCatchesOutOfRange(t *testing.T) {
	e := New(mesh.Shape{2}, 1)
	e.Map[0], e.Map[1] = 0, 2 // 2 is outside the 1-cube
	if err := e.Verify(); err == nil {
		t.Error("out-of-range image not caught")
	}
}

func TestCongestionAccounting(t *testing.T) {
	// Two guest edges forced over the same host link.
	e := New(mesh.Shape{3}, 2)
	e.Map[0], e.Map[1], e.Map[2] = 0, 1, 0 // invalid 1-1 but fine for counting
	loads := e.LinkLoads()
	total := 0
	for _, c := range loads {
		total += c
	}
	if total != 2 {
		t.Errorf("total link traversals = %d, want 2", total)
	}
	if e.Congestion() != 2 {
		t.Errorf("congestion = %d, want 2", e.Congestion())
	}
}

func TestRealizeMinCongestion(t *testing.T) {
	// A 2x2 guest into a 2-cube with both diagonals used: greedy path
	// choice must split the two distance-2 edges over disjoint paths.
	s := mesh.Shape{4}
	e := New(s, 2)
	e.Map[0], e.Map[1], e.Map[2], e.Map[3] = 0, 3, 0, 3
	_ = e.VerifyManyToOne()
	e.RealizeMinCongestion()
	if e.Congestion() > 2 {
		t.Errorf("congestion = %d", e.Congestion())
	}
	// With 3 guest edges each of dilation ≤ 2 over 4 links, greedy should
	// achieve congestion ≤ 2.
}

func TestRealizeMinCongestionKeepsDilation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := mesh.Shape{3, 3}
		e := New(s, 4)
		perm := r.Perm(16)
		for i := range e.Map {
			e.Map[i] = cube.Node(perm[i])
		}
		before := e.Dilation()
		avgBefore := e.AvgDilation()
		e.RealizeMinCongestion()
		if err := e.Verify(); err != nil {
			return false
		}
		return e.Dilation() == before && e.AvgDilation() == avgBefore
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAxisAvgDilation(t *testing.T) {
	e := Gray(mesh.Shape{4, 4})
	if d := e.AxisAvgDilation(0); d != 1 {
		t.Errorf("axis 0 avg dilation = %v", d)
	}
	if d := e.AxisAvgDilation(5); d != 0 {
		t.Errorf("missing axis should give 0, got %v", d)
	}
}

func TestMetricsString(t *testing.T) {
	m := Gray(mesh.Shape{3, 5}).Measure()
	if m.String() == "" {
		t.Error("empty metrics string")
	}
	if m.Guest != "3x5" {
		t.Errorf("guest = %q", m.Guest)
	}
}

func TestIdentity(t *testing.T) {
	e := Identity()
	if err := e.Verify(); err != nil {
		t.Fatal(err)
	}
	if e.N != 0 || e.Guest.Nodes() != 1 || e.Dilation() != 0 {
		t.Errorf("identity: %s", e.Measure())
	}
}

func BenchmarkGrayEmbedding(b *testing.B) {
	s := mesh.Shape{32, 32, 32}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Gray(s)
	}
}

func BenchmarkDilation(b *testing.B) {
	e := Gray(mesh.Shape{32, 32, 32})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Dilation()
	}
}

func BenchmarkCongestion(b *testing.B) {
	e := Gray(mesh.Shape{16, 16, 16})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Congestion()
	}
}
