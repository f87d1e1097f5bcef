package embed

import (
	"context"
	"testing"

	"repro/internal/mesh"
	"repro/internal/obs"
)

// grayEmbedding returns the Gray-coded embedding of the shape spec.
func grayEmbedding(t testing.TB, spec string) *Embedding {
	t.Helper()
	s, err := mesh.ParseShape(spec)
	if err != nil {
		t.Fatal(err)
	}
	return Gray(s)
}

func TestMeasureCtxMatchesMeasure(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	for _, spec := range []string{"4x4x4", "8x8x8", "16x16x16", "5x6x7"} {
		e := grayEmbedding(t, spec)
		want := e.Measure()

		ctx, root := obs.StartRoot(context.Background(), "test")
		got := e.MeasureCtx(ctx)
		root.End()

		if got != want {
			t.Errorf("%s: traced metrics %+v != untraced %+v", spec, got, want)
		}
		snap := root.Snapshot()
		measure := snap.Find("measure")
		if measure == nil {
			t.Fatalf("%s: no measure span", spec)
		}
		if measure.Find("fused-pass") == nil {
			t.Fatalf("%s: no fused-pass span under measure", spec)
		}
	}
}

// TestFusedPassShardSpans checks the single fused-pass span: no shard
// children, and its edge tally is the guest's edge count.
func TestFusedPassShardSpans(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	e := grayEmbedding(t, "16x16x16")
	ctx, root := obs.StartRoot(context.Background(), "test")
	e.MeasureCtx(ctx)
	root.End()

	snap := root.Snapshot()
	fp := snap.Find("fused-pass")
	if fp == nil {
		t.Fatal("no fused-pass span")
	}
	if len(fp.Children) != 0 {
		t.Fatalf("fused-pass has %d child spans, want none", len(fp.Children))
	}
	var edges any
	for _, a := range fp.Attrs {
		if a.Key == "edges" {
			edges = a.Value
		}
	}
	if want := int64(e.NumGuestEdges()); edges != want {
		t.Fatalf("fused-pass edges = %v, want %d", edges, want)
	}
}
