package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/embed"
	"repro/internal/guest"
	"repro/internal/mesh"
)

func post(t *testing.T, h http.Handler, path, body string) (*httptest.ResponseRecorder, map[string]json.RawMessage) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &fields); err != nil {
		t.Fatalf("%s: non-JSON response %q: %v", path, rec.Body.String(), err)
	}
	return rec, fields
}

func TestHealthz(t *testing.T) {
	h := New(Config{}).Handler()
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"ok"`) {
		t.Fatalf("healthz: %d %q", rec.Code, rec.Body.String())
	}
}

func TestPlanEndpoint(t *testing.T) {
	h := New(Config{}).Handler()
	rec, _ := post(t, h, "/v1/plan", `{"shape":"5x6x7"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("plan: %d %s", rec.Code, rec.Body.String())
	}
	var resp PlanResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Version != APIVersion || resp.CubeDim != 8 || resp.Plan == "" || resp.Source != "computed" {
		t.Fatalf("plan response: %+v", resp)
	}
	rec, _ = post(t, h, "/v1/plan", `{"shape":"5x6x7"}`)
	var again PlanResponse
	_ = json.Unmarshal(rec.Body.Bytes(), &again)
	if again.Source != "cache" || again.Plan != resp.Plan {
		t.Fatalf("second plan not cached: %+v", again)
	}
}

func TestEmbedEndpointWithMap(t *testing.T) {
	h := New(Config{}).Handler()
	rec, _ := post(t, h, "/v1/embed", `{"shape":"5x6x7","include_map":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("embed: %d %s", rec.Code, rec.Body.String())
	}
	var resp EmbedResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Metrics.Guest != "5x6x7" || resp.Metrics.CubeDim != 8 {
		t.Fatalf("metrics: %+v", resp.Metrics)
	}
	if resp.Embedding == nil {
		t.Fatal("include_map: no embedding in response")
	}
	e, err := embed.FromSerial((*embed.Serial)(resp.Embedding))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := e.Measure(); got != embed.Metrics(resp.Metrics) {
		t.Fatalf("served metrics %+v != remeasured %+v", resp.Metrics, got)
	}
}

// TestEmbedPermutedHit exercises the canonical-shape result cache: a
// permuted request must be a cache hit and still receive a valid embedding
// of ITS axis order with identical metric values.
func TestEmbedPermutedHit(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	rec, _ := post(t, h, "/v1/embed", `{"shape":"5x6x7","include_map":true}`)
	var first EmbedResponse
	_ = json.Unmarshal(rec.Body.Bytes(), &first)

	rec, _ = post(t, h, "/v1/embed", `{"shape":"7x6x5","include_map":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("permuted embed: %d %s", rec.Code, rec.Body.String())
	}
	var resp EmbedResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Source != "cache" {
		t.Fatalf("permuted request source = %q, want cache", resp.Source)
	}
	if resp.Metrics.Guest != "7x6x5" || resp.Embedding.Guest != "7x6x5" {
		t.Fatalf("guest not relabeled: %+v", resp.Metrics)
	}
	e, err := embed.FromSerial((*embed.Serial)(resp.Embedding))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Verify(); err != nil {
		t.Fatalf("relabeled map invalid: %v", err)
	}
	got := e.Measure()
	want := embed.Metrics(first.Metrics)
	want.Guest = "7x6x5"
	if got != want {
		t.Fatalf("relabeled metrics %+v, want %+v", got, want)
	}
	if st := s.CacheStats(); st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (permutations share one entry)", st.Misses)
	}
}

// TestEmbedIncludeMapPinnedPaths serves include_map for a plan whose direct
// factor pins host routes.  The cache entry keeps only the node
// map, so on a miss, an identical-order hit and a permuted hit the served
// map must be the fresh build's map relabeled into the request's axis order.
func TestEmbedIncludeMapPinnedPaths(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	canon := mesh.Shape{3, 5, 7}
	p, err := s.Planner().TryPlanGuest(guest.Mesh, canon)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.String(), "[direct]") {
		t.Fatalf("plan %s has no direct factor", p)
	}
	fresh := p.Build()
	if !slices.ContainsFunc(fresh.Routes, func(c uint8) bool { return c != 0 }) {
		t.Fatalf("plan %s pins no routes", p)
	}
	for _, tc := range []struct{ shape, source string }{
		{"3x5x7", "computed"},
		{"3x5x7", "cache"},
		{"7x3x5", "cache"},
	} {
		rec, _ := post(t, h, "/v1/embed", fmt.Sprintf(`{"shape":%q,"include_map":true}`, tc.shape))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", tc.shape, rec.Code, rec.Body.String())
		}
		var resp EmbedResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		ser := resp.Embedding
		if resp.Source != tc.source || resp.Plan != p.String() || ser == nil {
			t.Fatalf("%s: source %q plan %q embedding %v", tc.shape, resp.Source, resp.Plan, ser)
		}
		if ser.Version != embed.SchemaVersion || ser.Guest != tc.shape || ser.Family != "" ||
			ser.Wrap || ser.Cube != fresh.N {
			t.Fatalf("%s: serial header %+v", tc.shape, ser)
		}
		want, _ := mesh.ParseShape(tc.shape)
		if len(ser.Map) != want.Nodes() {
			t.Fatalf("%s: map has %d of %d nodes", tc.shape, len(ser.Map), want.Nodes())
		}
		// The axis lengths are distinct, so each canonical axis is the
		// request axis of the same length.
		cc := make([]int, canon.Dims())
		for idx := range ser.Map {
			c := want.Coord(idx)
			for i, l := range want {
				for j, cl := range canon {
					if cl == l {
						cc[j] = c[i]
					}
				}
			}
			if img := uint64(fresh.Map[canon.Index(cc)]); ser.Map[idx] != img {
				t.Fatalf("%s: node %v served at %d, fresh build has %d", tc.shape, c, ser.Map[idx], img)
			}
		}
	}
	if st := s.CacheStats(); st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
}

// TestNarrowMapGuard pins the uint32 cache map's guard: a cube above 32
// dimensions is refused, and 32-bit images survive the narrowing.
func TestNarrowMapGuard(t *testing.T) {
	if _, err := narrowMap(embed.New(mesh.Shape{2}, 33)); err == nil {
		t.Fatal("33-cube map narrowed to uint32")
	}
	e := embed.New(mesh.Shape{2}, 32)
	e.Map[1] = 1<<32 - 1
	m, err := narrowMap(e)
	if err != nil || len(m) != 2 || m[0] != 0 || m[1] != 1<<32-1 {
		t.Fatalf("32-cube map narrowed to %v, %v", m, err)
	}
}

func TestEmbedModes(t *testing.T) {
	h := New(Config{}).Handler()
	// The response mode is normalized: the deprecated alias "torus" is
	// served as family torus, mode decomposition, with a deprecation note.
	wantMode := map[string]string{"gray": "gray", "torus": "decomposition"}
	for mode, wantDil := range map[string]int{"gray": 1, "torus": 0} {
		rec, _ := post(t, h, "/v1/embed", fmt.Sprintf(`{"shape":"6x10","mode":%q}`, mode))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", mode, rec.Code, rec.Body.String())
		}
		var resp EmbedResponse
		_ = json.Unmarshal(rec.Body.Bytes(), &resp)
		if resp.Mode != wantMode[mode] {
			t.Fatalf("mode = %q", resp.Mode)
		}
		if (mode == "torus") != (resp.Deprecation != "") {
			t.Fatalf("mode %s: deprecation = %q", mode, resp.Deprecation)
		}
		if mode == "gray" && resp.Metrics.Dilation != wantDil {
			t.Fatalf("gray dilation = %d", resp.Metrics.Dilation)
		}
		if mode == "torus" && !resp.Metrics.Wrap {
			t.Fatal("torus metrics not marked wraparound")
		}
	}
}

func TestCompareEndpoint(t *testing.T) {
	h := New(Config{}).Handler()
	rec, _ := post(t, h, "/v1/compare", `{"shape":"12x20","simnet":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("compare: %d %s", rec.Code, rec.Body.String())
	}
	var resp CompareResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	techniques := make(map[string]bool)
	for _, row := range resp.Rows {
		techniques[row.Technique] = true
	}
	for _, want := range []string{"gray", "snake", "rowmajor", "decomposition"} {
		if !techniques[want] {
			t.Fatalf("missing technique %q in %v", want, resp.Rows)
		}
	}
	if len(resp.Simnet) != len(resp.Rows) {
		t.Fatalf("simnet stats for %d of %d techniques", len(resp.Simnet), len(resp.Rows))
	}
	for name, st := range resp.Simnet {
		if st.Messages == 0 || st.Makespan == 0 {
			t.Fatalf("%s: empty round stats %+v", name, st)
		}
	}
}

// TestCompareRowsIndependentOfSimnet checks that a compare without simnet
// — one technique built at a time, the mesh Gray row in closed form —
// serves the rows a simnet compare measures from all its embeddings.
func TestCompareRowsIndependentOfSimnet(t *testing.T) {
	s := New(Config{})
	cases := []struct {
		fam   guest.Family
		shape string
	}{
		{guest.Mesh, "1x1x1"}, {guest.Mesh, "1x2"}, {guest.Mesh, "12x20"}, {guest.Mesh, "5x6x7"},
		{guest.Mesh, "2x1x9"}, {guest.Torus, "6x10"}, {guest.Cylinder, "3x4x6"}, {guest.Tree, "15"},
	}
	for _, c := range cases {
		canon, _ := guest.Get(c.fam).Canonical(mesh.MustParse(c.shape))
		lean, err := s.computeCompare(context.Background(), c.fam, canon, false)
		if err != nil {
			t.Fatalf("%v %s: %v", c.fam, canon, err)
		}
		full, err := s.computeCompare(context.Background(), c.fam, canon, true)
		if err != nil {
			t.Fatalf("%v %s simnet: %v", c.fam, canon, err)
		}
		if !slices.Equal(lean.compare.Rows, full.compare.Rows) {
			t.Errorf("%v %s:\n rows %+v\n simnet rows %+v", c.fam, canon, lean.compare.Rows, full.compare.Rows)
		}
	}
}

func TestBadRequests(t *testing.T) {
	h := New(Config{}).Handler()
	cases := []struct {
		path, body string
		want       int
	}{
		{"/v1/plan", `{"shape":"5xx7"}`, http.StatusBadRequest},
		{"/v1/plan", `not json`, http.StatusBadRequest},
		{"/v1/plan", `{"shape":"5x6x7"} trailing`, http.StatusBadRequest},
		{"/v1/plan", `{"shap":"5x6x7"}`, http.StatusBadRequest}, // unknown field
		{"/v1/embed", `{"shape":"5x6x7","mode":"quantum"}`, http.StatusBadRequest},
		{"/v1/embed", `{"shape":""}`, http.StatusBadRequest},
		{"/v1/compare", `{"shape":"0x4"}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		rec, fields := post(t, h, c.path, c.body)
		if rec.Code != c.want {
			t.Errorf("%s %q: code %d, want %d", c.path, c.body, rec.Code, c.want)
		}
		if _, ok := fields["error"]; !ok {
			t.Errorf("%s %q: no error field in %s", c.path, c.body, rec.Body.String())
		}
	}
}

func TestOversizedShape422(t *testing.T) {
	h := New(Config{MaxNodes: 1000}).Handler()
	rec, _ := post(t, h, "/v1/embed", `{"shape":"11x10x10"}`)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("oversized: %d %s", rec.Code, rec.Body.String())
	}
	// Absurd axes must 422 without overflowing the node count.
	rec, _ = post(t, h, "/v1/plan", `{"shape":"1000000000x1000000000x1000000000"}`)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("overflow shape: %d %s", rec.Code, rec.Body.String())
	}
}

func TestTimeout504(t *testing.T) {
	h := New(Config{Timeout: time.Nanosecond}).Handler()
	rec, _ := post(t, h, "/v1/embed", `{"shape":"32x32x32"}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("timeout: %d %s", rec.Code, rec.Body.String())
	}
}

// TestTimeoutStillCaches: the detached computation outlives the timed-out
// request and serves the retry from cache.
func TestTimeoutStillCaches(t *testing.T) {
	s := New(Config{Timeout: time.Nanosecond})
	h := s.Handler()
	rec, _ := post(t, h, "/v1/embed", `{"shape":"23x29x31"}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("first: %d", rec.Code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.CacheStats().Size == 0 {
		if time.Now().After(deadline) {
			t.Fatal("detached computation never landed in the cache")
		}
		time.Sleep(time.Millisecond)
	}
	if st := s.CacheStats(); st.Misses != 1 {
		t.Fatalf("misses = %d", st.Misses)
	}
}

func TestShed429(t *testing.T) {
	s := New(Config{MaxInflight: 1})
	h := s.Handler()
	release := make(chan struct{})
	done := make(chan int)
	go func() {
		// Occupy the single slot with a request whose compute blocks until
		// released (hook the flight group directly to stay deterministic).
		req := httptest.NewRequest(http.MethodPost, "/v1/embed", strings.NewReader(`{"shape":"3x5x7"}`))
		rec := httptest.NewRecorder()
		s.flights.mu.Lock()
		s.flights.m["embed|decomposition|3x5x7"] = &flightCall{done: release}
		s.flights.mu.Unlock()
		h.ServeHTTP(rec, req)
		done <- rec.Code
	}()
	for s.m.inflight.Load() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	rec, _ := post(t, h, "/v1/plan", `{"shape":"3x3"}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("shed: %d %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") != "1" {
		t.Fatalf("no Retry-After header")
	}
	s.flights.mu.Lock()
	c := s.flights.m["embed|decomposition|3x5x7"]
	c.val = &cachedResult{metrics: embed.Metrics{}, hostMap: make([]uint32, 3*5*7)}
	delete(s.flights.m, "embed|decomposition|3x5x7")
	s.flights.mu.Unlock()
	close(release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("blocked request finished with %d", code)
	}
	if got := s.m.shed.Load(); got != 1 {
		t.Fatalf("shed counter = %d", got)
	}
}

// TestCoalescing hammers one shape from 32 goroutines and asserts the
// computation ran exactly once (one result-cache miss); run under -race via
// the Makefile race target.
func TestCoalescing(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	const clients = 32
	var wg sync.WaitGroup
	start := make(chan struct{})
	codes := make([]int, clients)
	bodies := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			req := httptest.NewRequest(http.MethodPost, "/v1/embed", strings.NewReader(`{"shape":"23x9x5"}`))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			codes[i] = rec.Code
			bodies[i] = rec.Body.String()
		}(i)
	}
	close(start)
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("client %d: %d %s", i, code, bodies[i])
		}
	}
	st := s.CacheStats()
	if st.Misses != 1 {
		t.Fatalf("result-cache misses = %d, want exactly 1", st.Misses)
	}
	if got := st.Hits + s.Coalesced(); got != clients-1 {
		t.Fatalf("hits(%d)+coalesced(%d) = %d, want %d", st.Hits, s.Coalesced(), got, clients-1)
	}
	// All clients saw the same metrics, modulo the source field.
	var want EmbedResponse
	_ = json.Unmarshal([]byte(bodies[0]), &want)
	for i := 1; i < clients; i++ {
		var got EmbedResponse
		_ = json.Unmarshal([]byte(bodies[i]), &got)
		if got.Metrics != want.Metrics || got.Plan != want.Plan {
			t.Fatalf("client %d diverged: %+v vs %+v", i, got.Metrics, want.Metrics)
		}
	}
}

// TestGracefulShutdown starts a real listener, parks a slow request on it,
// and asserts http.Server.Shutdown lets the request complete.
func TestGracefulShutdown(t *testing.T) {
	s := New(Config{})
	srv := &http.Server{Handler: s.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()

	type result struct {
		code int
		body string
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/embed", "application/json",
			strings.NewReader(`{"shape":"37x41x43"}`))
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		done <- result{code: resp.StatusCode, body: string(body)}
	}()
	for s.m.inflight.Load() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request failed: %v", r.err)
	}
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request: %d %s", r.code, r.body)
	}
}

func TestMetricsExposition(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	post(t, h, "/v1/embed", `{"shape":"5x6x7"}`)
	post(t, h, "/v1/embed", `{"shape":"5x6x7"}`)
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	body := rec.Body.String()
	for _, want := range []string{
		`embedserver_requests_total{endpoint="embed",code="200"} 2`,
		`embedserver_request_seconds_count{endpoint="embed"} 2`,
		`embedserver_request_seconds_bucket{endpoint="embed",le="+Inf"} 2`,
		"embedserver_result_cache_hits_total 1",
		"embedserver_result_cache_misses_total 1",
		"embedserver_plan_cache_entries",
		"embedserver_inflight 0",
		"embedserver_shed_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition missing %q\n%s", want, body)
		}
	}
}
