package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/jobs"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/pkg/api"
)

// served sends a small cold-embed stream to an in-process server and
// returns the checker holding its references with the responses.
func served(t *testing.T) (*checker, []Request, []any) {
	t.Helper()
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	t.Cleanup(ts.Close)
	c := newClient(ts.URL, false)
	st := ColdEmbed(3, 1)
	reqs := st.All()
	chk := newChecker(nil)
	if err := chk.prepare(reqs, 1); err != nil {
		t.Fatal(err)
	}
	var resps []any
	for _, r := range reqs {
		resp, err := call(context.Background(), c, r)
		if err != nil {
			t.Fatal(err)
		}
		resps = append(resps, resp)
	}
	return chk, reqs, resps
}

// firstOf returns the index of the first response of type T.
func firstOf[T any](t *testing.T, resps []any) (int, T) {
	t.Helper()
	for i, r := range resps {
		if v, ok := r.(T); ok {
			return i, v
		}
	}
	var zero T
	t.Fatalf("no %T response in the stream", zero)
	return 0, zero
}

// clone deep-copies a response so a test can tamper with it.
func clone[E any](t *testing.T, v *E) *E {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	out := new(E)
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkOne checks one (possibly tampered) response on a fresh failure
// list and returns the failures.
func checkOne(chk *checker, r Request, resp any, sources []string) []string {
	chk.failures = nil
	chk.checkResponse(r, resp, sources, 0)
	return chk.failures
}

func TestCheckerAcceptsTheServer(t *testing.T) {
	chk, reqs, resps := served(t)
	for i, r := range reqs {
		if f := checkOne(chk, r, resps[i], sourcesFor(r, true)); len(f) > 0 {
			t.Fatalf("correct response rejected: %v", f)
		}
	}
}

func TestCheckerRejectsFaults(t *testing.T) {
	chk, reqs, resps := served(t)
	ei, _ := firstOf[*api.EmbedResponse](t, resps)
	pi, _ := firstOf[*api.PlanResponse](t, resps)
	ci, _ := firstOf[*api.CompareResponse](t, resps)
	cases := []struct {
		name   string
		i      int
		tamper func(v any) any
		want   string
	}{
		{"embed metric off by one", ei, func(v any) any {
			e := clone(t, v.(*api.EmbedResponse))
			e.Metrics.Wirelength++
			return e
		}, "metrics"},
		{"compare metric off by one", ci, func(v any) any {
			c := clone(t, v.(*api.CompareResponse))
			c.Rows[0].Metrics.Congestion++
			return c
		}, "rows"},
		{"plan cube off by one", pi, func(v any) any {
			p := clone(t, v.(*api.PlanResponse))
			p.CubeDim++
			return p
		}, "plan"},
		{"negative certificate gap", ei, func(v any) any {
			e := clone(t, v.(*api.EmbedResponse))
			e.Certificate.LowerBounds.Dilation = e.Metrics.Dilation + 1
			e.Certificate.DilationGap = -1
			return e
		}, "below the certified floor"},
		{"optimal claimed with a nonzero gap", ei, func(v any) any {
			e := clone(t, v.(*api.EmbedResponse))
			e.Certificate.CongestionGap++
			e.Certificate.GapToOptimal++
			e.Certificate.Optimal = true
			return e
		}, "optimal true"},
		{"cold response served from cache", ei, func(v any) any {
			e := clone(t, v.(*api.EmbedResponse))
			e.Source = "cache"
			return e
		}, "source"},
	}
	for _, tc := range cases {
		r := reqs[tc.i]
		f := checkOne(chk, r, tc.tamper(resps[tc.i]), sourcesFor(r, true))
		if len(f) == 0 {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(strings.Join(f, "\n"), tc.want) {
			t.Errorf("%s: failures %v do not mention %q", tc.name, f, tc.want)
		}
	}
}

// jobResults runs a job sequence on an in-process server with jobs and
// returns the result streams by job name.
func jobResults(t *testing.T, seq []Job) map[string][]byte {
	t.Helper()
	srv := server.New(server.Config{})
	m, err := jobs.Open(jobs.Config{DataDir: t.TempDir(), Planner: srv.Planner()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close(context.Background()) })
	srv.AttachJobs(m)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	runs, err := runPass(newClient(ts.URL, false), seq, false, false)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, r := range runs {
		out[r.job.Name] = r.results
	}
	return out
}

func TestCheckerJobs(t *testing.T) {
	const maxN = 4
	sweep := api.PlanSweepParams{Dims: 3, MaxAxis: 6, MaxNodes: 1 << 10, Family: "torus"}
	res := jobResults(t, []Job{
		{"census", api.JobSubmitRequest{Kind: api.JobCensus, Census: &api.CensusParams{MaxN: maxN}}},
		{"plansweep", api.JobSubmitRequest{Kind: api.JobPlanSweep, PlanSweep: &sweep}},
	})
	ref := stats.Figure2Parallel(maxN, 0)
	chk := newChecker(nil)
	chk.checkCensus(res["census"], maxN, ref)
	chk.checkPlanSweep(res["plansweep"], sweep)
	chk.checkIdentical("census", res["census"], res["census"])
	if len(chk.failures) > 0 {
		t.Fatalf("correct job results rejected: %v", chk.failures)
	}

	// A perturbed census row.
	var lines [][]byte
	for _, l := range bytes.Split(res["census"], []byte("\n")) {
		if bytes.Contains(l, []byte(`"type":"census_row","n":3`)) {
			var row api.CensusRowRecord
			if err := json.Unmarshal(l, &row); err != nil {
				t.Fatal(err)
			}
			row.S[1] += 0.01
			l, _ = json.Marshal(row)
		}
		lines = append(lines, l)
	}
	perturbed := bytes.Join(lines, []byte("\n"))
	if bytes.Equal(perturbed, res["census"]) {
		t.Fatal("no census row n=3 to perturb")
	}
	chk.failures = nil
	chk.checkCensus(perturbed, maxN, ref)
	if len(chk.failures) == 0 {
		t.Error("perturbed census row accepted")
	}

	// A perturbed plansweep row.
	chk.failures = nil
	chk.checkPlanSweep(bytes.Replace(res["plansweep"], []byte(`"method":`), []byte(`"method":1`), 1), sweep)
	if len(chk.failures) == 0 {
		t.Error("perturbed plansweep row accepted")
	}

	// A local vs distributed difference.
	chk.failures = nil
	dist := bytes.Clone(res["census"])
	dist[len(dist)/2] ^= 1
	chk.checkIdentical("census", res["census"], dist)
	if len(chk.failures) == 0 {
		t.Error("local vs distributed difference accepted")
	}
}
