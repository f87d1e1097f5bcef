package core

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"repro/internal/direct"
	"repro/internal/embed"
	"repro/internal/guest"
	"repro/internal/mesh"
)

var updatePinnedGolden = flag.Bool("update-pinned-golden", false, "rewrite testdata/pinned_golden.txt")

const pinnedGoldenFile = "testdata/pinned_golden.txt"

// loadsDigest is the FNV-64a of the link-load vector, each load as a
// little-endian uint32.
func loadsDigest(e *embed.Embedding) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, c := range e.LinkLoads() {
		binary.LittleEndian.PutUint32(buf[:], uint32(c))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// pinnedGoldenEmbeddings builds every embedding whose congestion depends on
// pinned routes: each direct table, products and submeshes over direct
// factors, a solver plan re-realized for a permuted axis order, and a
// scrambled torus.
func pinnedGoldenEmbeddings(t *testing.T) []struct {
	name string
	e    *embed.Embedding
} {
	var out []struct {
		name string
		e    *embed.Embedding
	}
	add := func(name string, e *embed.Embedding) {
		out = append(out, struct {
			name string
			e    *embed.Embedding
		}{name, e})
	}
	for _, tab := range direct.Tables {
		e, ok := direct.Embedding(tab.Shape)
		if !ok {
			t.Fatalf("no direct embedding for %v", tab.Shape)
		}
		add("direct "+tab.Shape.String(), e)
	}
	for _, s := range []string{"3x5x7", "22x2x557", "2x22x5557", "7x96x337", "12x21x544", "2x7x8836"} {
		sh, err := mesh.ParseShape(s)
		if err != nil {
			t.Fatal(err)
		}
		p := PlanShape(sh, DefaultOptions)
		add("plan "+p.String(), p.Build())
	}
	// A solver-only registry on a non-canonical axis order: the canonical
	// 2x3x5 is solved and permuteEmbedding re-realizes its routes.
	pc := newPlanContext(DefaultOptions, nil, true)
	pc.reg = &Registry{threeD: []stage{{strat: SolverStrategy{}}}}
	sp := pc.planTop(mesh.Shape{5, 2, 3})
	if sp.Kind != KindSolver {
		t.Fatalf("solver registry planned %s", sp)
	}
	add("solver "+sp.String(), sp.Build())

	scrambledTorus := embed.Gray(mesh.Shape{5, 7})
	scrambledTorus.Family = guest.Torus
	scrambledTorus.RealizeMinCongestion()
	add("torus 5x7 scrambled", scrambledTorus)
	return out
}

// TestPinnedGoldenMetrics pins the metrics and the exact link-load vector of
// every pinned-route embedding to values recorded before route codes
// replaced explicit paths.
func TestPinnedGoldenMetrics(t *testing.T) {
	var b strings.Builder
	for _, c := range pinnedGoldenEmbeddings(t) {
		if err := c.e.Verify(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&b, "%s\n\t%s\n\tloads fnv64a %016x\n", c.name, c.e.Measure(), loadsDigest(c.e))
	}
	got := b.String()
	if *updatePinnedGolden {
		if err := os.WriteFile(pinnedGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(pinnedGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("pinned metrics drifted from %s:\n got:\n%s\nwant:\n%s", pinnedGoldenFile, got, want)
	}
}
