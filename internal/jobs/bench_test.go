package jobs

import (
	"context"
	"io"
	"log/slog"
	"testing"
	"time"

	"repro/pkg/api"
)

// benchJob runs one job end to end through the manager (submit, chunk loop,
// checkpoints, finish records) and reports shape throughput — the number a
// capacity plan for the full 512³ census starts from.
func benchJob(b *testing.B, req api.JobSubmitRequest, shapes float64) {
	b.Helper()
	dir := b.TempDir()
	m, err := Open(Config{
		DataDir: dir,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Close(ctx)
	}()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		st, err := m.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		for {
			cur, err := m.Status(st.ID)
			if err != nil {
				b.Fatal(err)
			}
			if cur.State.Terminal() {
				if cur.State != api.JobDone {
					b.Fatalf("job ended %s: %s", cur.State, cur.Error)
				}
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	b.ReportMetric(shapes*float64(b.N)/time.Since(start).Seconds(), "shapes/sec")
}

func BenchmarkCensusJob_n6(b *testing.B) {
	benchJob(b, api.JobSubmitRequest{
		Kind: api.JobCensus, Census: &api.CensusParams{MaxN: 6},
	}, float64(uint64(1)<<18))
}

func BenchmarkCensusJob_n7(b *testing.B) {
	benchJob(b, api.JobSubmitRequest{
		Kind: api.JobCensus, Census: &api.CensusParams{MaxN: 7},
	}, float64(uint64(1)<<21))
}

func BenchmarkPlanSweepJob(b *testing.B) {
	benchJob(b, api.JobSubmitRequest{
		Kind:      api.JobPlanSweep,
		PlanSweep: &api.PlanSweepParams{Dims: 3, MaxAxis: 16, MaxNodes: 4096},
	}, 688) // sorted 3-D shapes, axes ≤ 16, ≤ 4096 nodes
}
