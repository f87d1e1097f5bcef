package core

import (
	"testing"

	"repro/internal/mesh"
	"repro/internal/stats"
)

func TestTwoDimCoverage64(t *testing.T) {
	// §3.3: "By using these three embeddings, graph decomposition technique
	// and Gray code embedding, all two-dimensional meshes with ≤ 64 nodes
	// can be embedded into a minimal cube with dilation two and congestion
	// two, with the exception of the embedding of the 3x21 mesh."
	//
	// Our constructive engine goes one better: the axis-folding plan maps
	// 3x21 onto the 3x3x7 direct table (21 = 3·7 makes 3x21 a subgraph of
	// the 3x3x7 mesh), so EVERY 2D shape with ≤ 64 nodes builds a
	// minimal-expansion dilation-≤2 embedding — the paper's single
	// exception included.
	var failures []string
	for a := 1; a <= 64; a++ {
		for b := a; a*b <= 64; b++ {
			s := mesh.Shape{a, b}
			p := PlanShape(s, DefaultOptions)
			if !p.Minimal() {
				t.Fatalf("%v: plan not minimal", s)
			}
			e := p.Build()
			if err := e.Verify(); err != nil {
				t.Fatalf("%v: %v", s, err)
			}
			if e.Dilation() > 2 {
				failures = append(failures, s.String())
			}
		}
	}
	if len(failures) != 0 {
		t.Errorf("dilation > 2 for %v; folding should cover all ≤64-node 2D meshes", failures)
	}
}

func TestFoldResolves3x21(t *testing.T) {
	// The paper's §3.3 exception: 3x21 has no dilation-2 embedding from
	// {direct 2D tables, decomposition, Gray}.  Folding 21 = 3·7 exhibits
	// 3x21 as a subgraph of the 3x3x7 mesh, whose direct table gives
	// dilation two — improving on the paper.
	s := mesh.Shape{3, 21}
	p := PlanShape(s, DefaultOptions)
	if p.Kind != KindFold {
		t.Fatalf("expected fold plan for 3x21, got %s", p)
	}
	e := p.Build()
	if err := e.Verify(); err != nil {
		t.Fatal(err)
	}
	if !e.Minimal() || e.Dilation() > 2 {
		t.Errorf("3x21: %s (plan %s)", e.Measure(), p)
	}
}

func TestTwoDimCongestionTwo(t *testing.T) {
	// The congestion-two part of §3.3, for the shapes built from the
	// congestion-two direct tables and Gray codes.
	for _, s := range []mesh.Shape{{12, 20}, {6, 5}, {3, 10}, {9, 7}, {5, 12}, {24, 20}} {
		p := PlanShape(s, DefaultOptions)
		e := p.Build()
		if err := e.Verify(); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if d := e.Dilation(); d > 2 {
			t.Errorf("%v: dilation %d (plan %s)", s, d, p)
		}
		if c := e.Congestion(); c > 2 {
			t.Errorf("%v: congestion %d, want ≤ 2 (plan %s)", s, c, p)
		}
	}
}

func TestPlannerAgreesWithCountingPredicates(t *testing.T) {
	// Whenever the paper's counting predicates promise a dilation-two
	// minimal-expansion embedding via methods 1-2, the constructive
	// planner must deliver a minimal plan (its measured dilation may rely
	// on the 2D engine, so only the expansion is asserted in general;
	// method 1 also pins dilation one).
	for a := 1; a <= 14; a++ {
		for b := a; b <= 14; b++ {
			for c := b; c <= 14; c++ {
				s := mesh.Shape{a, b, c}
				p := PlanShape(s, Options{})
				if !p.Minimal() {
					t.Fatalf("%v: planner produced non-minimal plan %s", s, p)
				}
				if stats.Method1(a, b, c) {
					if p.Dilation != 1 {
						t.Errorf("%v: Gray-minimal but plan dilation %d (%s)", s, p.Dilation, p)
					}
				}
			}
		}
	}
}

func TestPlannerDilationTwoWhereMethodsApply(t *testing.T) {
	// For small 3D shapes covered by the counting predicates, the
	// constructive planner should reach measured dilation ≤ 2 in the
	// overwhelming majority of cases (the 2D engine stands in for Chan's
	// algorithm; see DESIGN.md substitution 1b).  Track the exceptions.
	covered, achieved := 0, 0
	var missed []string
	for a := 1; a <= 9; a++ {
		for b := a; b <= 9; b++ {
			for c := b; c <= 9; c++ {
				if stats.BestMethod(a, b, c) == 0 {
					continue
				}
				covered++
				s := mesh.Shape{a, b, c}
				e := PlanShape(s, DefaultOptions).Build()
				if err := e.Verify(); err != nil {
					t.Fatalf("%v: %v", s, err)
				}
				if e.Dilation() <= 2 {
					achieved++
				} else {
					missed = append(missed, s.String())
				}
			}
		}
	}
	t.Logf("constructive dilation ≤ 2 on %d/%d oracle-covered shapes (missed: %v)",
		achieved, covered, missed)
	if float64(achieved) < 0.85*float64(covered) {
		t.Errorf("constructive engine too weak: %d/%d", achieved, covered)
	}
}

func TestHighDimPlannerMatchesGroupingPredicate(t *testing.T) {
	// Wherever the §8 grouping predicate (stats.CoveredK) promises
	// dilation ≤ 2 at minimal expansion, the constructive planner should
	// deliver it on small 4-D domains.
	covered, achieved := 0, 0
	var missed []string
	for a := 2; a <= 6; a++ {
		for b := a; b <= 6; b++ {
			for c := b; c <= 6; c++ {
				for d := c; d <= 6; d++ {
					if !stats.CoveredK([]int{a, b, c, d}) {
						continue
					}
					covered++
					s := mesh.Shape{a, b, c, d}
					e := PlanShape(s, DefaultOptions).Build()
					if err := e.Verify(); err != nil {
						t.Fatalf("%v: %v", s, err)
					}
					if !e.Minimal() {
						t.Fatalf("%v: not minimal", s)
					}
					if e.Dilation() <= 2 {
						achieved++
					} else {
						missed = append(missed, s.String())
					}
				}
			}
		}
	}
	t.Logf("4-D constructive dilation ≤ 2 on %d/%d predicate-covered shapes (missed: %v)",
		achieved, covered, missed)
	if achieved < covered*9/10 {
		t.Errorf("4-D constructive engine too weak: %d/%d", achieved, covered)
	}
}

// hypercubeBFS returns the BFS distance from src to every node of the
// explicit n-dimensional hypercube graph (neighbors by flipping one bit).
func hypercubeBFS(n, src int) []int {
	dist := make([]int, 1<<uint(n))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for b := 0; b < n; b++ {
			if v := u ^ 1<<uint(b); dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

func TestDilationAgreesWithGraphBFS(t *testing.T) {
	// Cross-check the Hamming-distance dilation against an independent
	// BFS on the explicit hypercube graph.
	for _, s := range []mesh.Shape{{3, 5}, {5, 6}, {3, 3, 3}} {
		e := PlanShape(s, DefaultOptions).Build()
		worst := 0
		s.EachEdge(func(ed mesh.Edge) {
			d := hypercubeBFS(e.N, int(e.Map[ed.U]))[e.Map[ed.V]]
			if d > worst {
				worst = d
			}
		})
		if worst != e.Dilation() {
			t.Errorf("%v: BFS dilation %d != Hamming dilation %d", s, worst, e.Dilation())
		}
	}
}
