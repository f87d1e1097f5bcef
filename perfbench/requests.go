package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/server"
	"repro/pkg/api"
	"repro/pkg/client"
)

// setupReps is how many times a request workload boots its server (and
// warms it up) to report the median set-up time; the last boot is kept.
const setupReps = 9

// blocks is how many consecutive blocks each phase is cut into; a phase
// reports the median of its blocks' figures, so one stall on the machine
// moves one block, not the run.
const blocks = 5

// sourcesFor lists the response sources a workload allows for a request.
func sourcesFor(r Request, cold bool) []string {
	switch {
	case r.Phase == "warmup":
		return []string{"computed", "closed_form", "cache", "coalesced"}
	case !cold:
		return []string{"cache", "coalesced"}
	case r.Kind == "plan":
		return []string{"computed", "closed_form"}
	default:
		return []string{"computed"}
	}
}

// runRequests runs hot-mix or cold-embed: references, set-up, the
// closed-loop capacity phase, the open-loop latency phase, and in a traced
// run the in-process handler and loopback replays of the latency phase.
func runRequests(cfg config, st *Stream, cold bool) (*result, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	chk := newChecker(tr)
	all := st.All()
	// References are part of set-up but not of setup_s.
	if err := chk.prepare(all, 1); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}

	res := &result{}
	var setups []float64
	var p *proc
	var warm []outcome
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		p, err = boot(cfg.server)
		if err != nil {
			return nil, err
		}
		warm, _ = closedLoop(newClient(p.base, false), st.Warmup, false)
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			p.stop()
		}
	}
	defer p.stop()

	c := newClient(p.base, cfg.trace)
	ctx := context.Background()
	before, err := scrape(ctx, c)
	if err != nil {
		return nil, err
	}
	cpu0, err := p.cpuSeconds()
	if err != nil {
		return nil, err
	}
	var capOuts []outcome
	var capRates []float64
	for b := 0; b < blocks; b++ {
		reqs := st.Capacity[b*len(st.Capacity)/blocks : (b+1)*len(st.Capacity)/blocks]
		outs, elapsed := closedLoop(c, reqs, cfg.trace)
		capOuts = append(capOuts, outs...)
		capRates = append(capRates, float64(len(outs))/elapsed.Seconds())
	}
	latOuts := openLoop(c, st.Latency, st.Rate, cfg.trace)
	cpu1, err := p.cpuSeconds()
	if err != nil {
		return nil, err
	}
	after, err := scrape(ctx, c)
	if err != nil {
		return nil, err
	}
	rss, err := p.peakRSSMB()
	if err != nil {
		return nil, err
	}

	// Check every response, warm-up included.
	id := len(all) + 1
	check := func(reqs []Request, outs []outcome) {
		for i, o := range outs {
			res.attempted++
			id++
			n := len(chk.failures)
			if o.err != nil {
				chk.fail("%s %s %s: %v", reqs[i].Kind, reqs[i].Family, reqs[i].Shape, o.err)
			} else {
				chk.checkResponse(reqs[i], o.resp, sourcesFor(reqs[i], cold), id)
			}
			if len(chk.failures) > n {
				res.failed++
			}
		}
	}
	check(st.Warmup, warm)
	check(st.Capacity, capOuts)
	check(st.Latency, latOuts)

	var lat, late, p50s, p99s []float64
	byKind := map[string][]float64{}
	for i, o := range latOuts {
		ms := float64(o.latency().Nanoseconds()) / 1e6
		lat = append(lat, ms)
		late = append(late, float64(o.sent.Sub(o.due).Nanoseconds())/1e6)
		byKind[st.Latency[i].Kind] = append(byKind[st.Latency[i].Kind], ms)
	}
	for b := 0; b < blocks; b++ {
		blk := lat[b*len(lat)/blocks : (b+1)*len(lat)/blocks]
		p50s, p99s = append(p50s, median(blk)), append(p99s, quantile(blk, 0.99))
	}
	// A failed request completes no work: the capacity figure counts only
	// correct responses.
	okFrac := 1 - frac(float64(res.failed), float64(res.attempted))
	res.add(&res.e2e, "setup_s", "s", median(setups), fmt.Sprintf("median of %d boots", setupReps))
	res.add(&res.e2e, "server_rss_mb", "MiB", rss, "VmHWM")
	res.add(&res.e2e, "throughput_rps", "1/s", okFrac*median(capRates), fmt.Sprintf("median of %d closed-loop blocks, %d requests, %d clients", blocks, len(capOuts), clients))
	res.add(&res.e2e, "latency_p50_ms", "ms", median(p50s), fmt.Sprintf("median of %d blocks; open loop at %g/s, n=%d", blocks, st.Rate, len(lat)))
	// The p99 of a block needs ten samples beyond it; with fewer, the
	// phase's p99 is the figure.
	if n := len(lat) / blocks; n >= 1000 {
		res.add(&res.e2e, "latency_p99_ms", "ms", median(p99s), fmt.Sprintf("median of %d blocks of %d (%d beyond each)", blocks, n, n/100))
	} else {
		res.add(&res.e2e, "latency_p99_ms", "ms", quantile(lat, 0.99), fmt.Sprintf("whole phase, n=%d, %d beyond", len(lat), len(lat)/100))
	}
	res.add(&res.e2e, "server_cpu_s", "s", cpu1-cpu0, fmt.Sprintf("user+system over the %d capacity and latency requests", len(capOuts)+len(latOuts)))
	for _, k := range []string{"plan", "embed", "compare"} {
		res.add(&res.e2e, k+"_p50_ms", "ms", median(byKind[k]), fmt.Sprintf("n=%d", len(byKind[k])))
	}
	res.add(&res.e2e, "failed_frac", "ratio", frac(float64(res.failed), float64(res.attempted)), fmt.Sprintf("%d of %d", res.failed, res.attempted))

	if cfg.trace {
		if err := requestLayers(cfg, st, cold, chk, res, before, after, append(capOuts, latOuts...), late); err != nil {
			return nil, err
		}
		if err := tr.write(filepath.Join(cfg.work, fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))); err != nil {
			return nil, err
		}
	}
	res.failures = chk.failures
	return res, nil
}

// requestLayers computes the per-layer metrics of a request workload and
// its layer ladder.
func requestLayers(cfg config, st *Stream, cold bool, chk *checker, res *result, before, after promSample, outs []outcome, late []float64) error {
	L := &res.layers
	res.add(L, "loadgen.late_p99_ms", "ms", quantile(late, 0.99), "send time minus due time")
	clientLayers(res, outs)
	serverLayers(res, before, after, meanService(outs), []string{"plan", "embed", "compare"})
	hits := delta(before, after, "embedserver_result_cache_hits_total")
	misses := delta(before, after, "embedserver_result_cache_misses_total")
	res.add(L, "server.l0_hit_frac", "ratio", frac(hits, hits+misses), "")
	res.add(L, "server.coalesced", "count", delta(before, after, "embedserver_coalesced_total"), "")
	res.add(L, "server.shed", "count", delta(before, after, "embedserver_shed_total"), "")
	res.add(L, "server.tier_closed_form_frac", "ratio", frac(delta(before, after, "embedserver_plan_tier_closed_form_total"), misses), "of L0 misses")
	res.add(L, "server.tier_compute_frac", "ratio", frac(delta(before, after, "embedserver_plan_tier_compute_total"), misses), "of L0 misses")

	// In-process handler replay (no network), then the loopback client
	// replay, of the latency phase on fresh servers warmed like the booted
	// one.
	handler, allocs, err := replayHandler(st, chk, cold)
	if err != nil {
		return err
	}
	for _, k := range []string{"plan", "embed", "compare"} {
		res.add(L, "server.handler_"+k+"_p50_us", "us", median(handler[k])/1e3, fmt.Sprintf("n=%d", len(handler[k])))
	}
	res.add(L, "server.handler_allocs_per_req", "count", allocs, "runtime.MemStats over the replay")
	loop, err := replayLoopback(st, chk, cold)
	if err != nil {
		return err
	}
	kernelLayers(res, chk)

	// The ladder: the per-request p50 of each layer on the latency phase.
	var kernel []float64
	bfor := median(chk.tr.durations("bounds.for")) // every response assembles a certificate
	for _, r := range st.Latency {
		k := bfor
		if cold {
			k += chk.kernelNs(r)
		}
		kernel = append(kernel, k)
	}
	var lat, svc []float64
	for _, o := range outs[len(st.Capacity):] {
		lat = append(lat, float64(o.latency().Nanoseconds()))
		svc = append(svc, float64(o.service().Nanoseconds()))
	}
	res.absent = append(res.absent, "jobs.*, fabric.*: this workload runs no batch job")
	title := fmt.Sprintf("layer ladder (%s): per-request p50 of each layer, share of the end-to-end p50 %.1f us", cfg.workload, median(lat)/1e3)
	res.ladder = ladder(title, median(lat), []rung{
		{"kernel (library calls)", median(kernel)},
		{"handler (httptest recorder)", median(handler["all"])},
		{"loopback (pkg/client, in-process server)", median(loop)},
		{"booted server, service (send to done)", median(svc)},
	})
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// clientLayers adds the client-side layer metrics of the probed calls.
func clientLayers(res *result, outs []outcome) {
	var ttfb, body, bytesN, reused []float64
	for _, o := range outs {
		if o.err != nil || o.probe == nil {
			continue
		}
		p := o.probe
		ttfb = append(ttfb, float64(p.firstByte.Sub(o.sent).Nanoseconds())/1e6)
		body = append(body, float64(p.bodyDone.Sub(p.firstByte).Nanoseconds())/1e3)
		bytesN = append(bytesN, float64(p.bytes))
		reused = append(reused, b2f(p.reused))
	}
	L := &res.layers
	res.add(L, "client.ttfb_p50_ms", "ms", median(ttfb), fmt.Sprintf("n=%d", len(ttfb)))
	res.add(L, "client.body_read_p50_us", "us", median(body), "first byte to body closed")
	res.add(L, "client.resp_bytes_mean", "bytes", mean(bytesN), "")
	res.add(L, "client.conn_reused_frac", "ratio", mean(reused), "")
}

// meanService is the mean send-to-done time of the successful calls, in
// seconds.
func meanService(outs []outcome) float64 {
	var s []float64
	for _, o := range outs {
		if o.err == nil {
			s = append(s, o.service().Seconds())
		}
	}
	return mean(s)
}

// serverLayers adds the /metrics-derived layer metrics every workload
// reports; clientMeanS is the client-side mean time of the same calls.
func serverLayers(res *result, before, after promSample, clientMeanS float64, endpoints []string) {
	var sum, n float64
	for _, ep := range endpoints {
		l := fmt.Sprintf("endpoint=%q", ep)
		sum += delta(before, after, "embedserver_request_seconds_sum", l)
		n += delta(before, after, "embedserver_request_seconds_count", l)
	}
	res.add(&res.layers, "server.busy_s", "s", sum, fmt.Sprintf("%.0f requests", n))
	res.add(&res.layers, "server.outside_handler_frac", "ratio", 1-frac(frac(sum, n), clientMeanS),
		fmt.Sprintf("server mean %.1f us, client mean %.1f us", frac(sum, n)*1e6, clientMeanS*1e6))
	res.add(&res.layers, "server.gc_pause_ms", "ms", 1e3*delta(before, after, "go_gc_pause_total_seconds"), "")
}

// kernelLayers adds the library-layer metrics measured on the reference
// computation.
func kernelLayers(res *result, chk *checker) {
	L := &res.layers
	tr := chk.tr
	res.add(L, "core.classify_p50_ns", "ns", median(tr.durations("core.classify")), fmt.Sprintf("n=%d", len(tr.durations("core.classify"))))
	res.add(L, "core.classify_hit_frac", "ratio", frac(chk.classified, chk.planCalls), "")
	plan := tr.durations("core.plan")
	res.add(L, "core.plan_p50_us", "us", median(plan)/1e3, fmt.Sprintf("n=%d, fresh planner", len(plan)))
	res.add(L, "core.plan_p99_us", "us", quantile(plan, 0.99)/1e3, "")
	cs := chk.planner.CacheStats()
	res.add(L, "core.plan_cache_hit_frac", "ratio", frac(float64(cs.Hits), float64(cs.Hits+cs.Misses)), fmt.Sprintf("%d hits, %d misses", cs.Hits, cs.Misses))
	if b := tr.durations("core.build"); len(b) > 0 {
		res.add(L, "core.build_p50_ms", "ms", median(b)/1e6, fmt.Sprintf("n=%d", len(b)))
		res.add(L, "embed.verify_p50_ms", "ms", median(tr.durations("embed.verify"))/1e6, "")
		m := tr.durations("embed.measure")
		res.add(L, "embed.measure_p50_ms", "ms", median(m)/1e6, fmt.Sprintf("n=%d", len(m)))
		var edges, ns float64
		for _, r := range chk.embeds {
			edges += r.edges
			ns += r.measureNs
		}
		res.add(L, "embed.measure_edges_per_s", "1/s", frac(edges, ns/1e9), "embed requests")
		res.add(L, "embed.measure_allocs_per_call", "count", mean(chk.measureAllocs), "")
	} else {
		for _, n := range []string{"core.build_p50_ms", "embed.verify_p50_ms", "embed.measure_p50_ms", "embed.measure_edges_per_s", "embed.measure_allocs_per_call"} {
			res.absent = append(res.absent, n+": no job of this workload builds or measures an embedding")
		}
	}
	b := tr.durations("bounds.for")
	res.add(L, "bounds.for_p50_ns", "ns", median(b), fmt.Sprintf("n=%d", len(b)))
}

// replayHandler replays the warm-up (untimed) and the latency phase
// through server.New(...).Handler() with an httptest recorder, checking
// every response.  It returns per-kind (and "all") durations in ns and the
// heap allocations per request.
func replayHandler(st *Stream, chk *checker, cold bool) (map[string][]float64, float64, error) {
	h := server.New(server.Config{}).Handler()
	serve := func(r Request) (any, time.Duration, error) {
		body, _ := json.Marshal(map[string]string{"shape": r.Shape, "family": r.Family})
		req := httptest.NewRequest(http.MethodPost, "/v1/"+r.Kind, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		t := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(t)
		if rec.Code != http.StatusOK {
			return nil, d, fmt.Errorf("handler %s %s %s: status %d: %s", r.Kind, r.Family, r.Shape, rec.Code, rec.Body)
		}
		resp := map[string]any{"plan": &api.PlanResponse{}, "embed": &api.EmbedResponse{}, "compare": &api.CompareResponse{}}[r.Kind]
		return resp, d, json.Unmarshal(rec.Body.Bytes(), resp)
	}
	for _, r := range st.Warmup {
		if _, _, err := serve(r); err != nil {
			return nil, 0, err
		}
	}
	out := map[string][]float64{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i, r := range st.Latency {
		id := chk.tr.start("handler."+r.Kind, 0, -1-i)
		resp, d, err := serve(r)
		chk.tr.end(id)
		if err != nil {
			return nil, 0, err
		}
		chk.checkResponse(r, resp, sourcesFor(r, cold), -1-i)
		out[r.Kind] = append(out[r.Kind], float64(d.Nanoseconds()))
		out["all"] = append(out["all"], float64(d.Nanoseconds()))
	}
	runtime.ReadMemStats(&ms1)
	return out, float64(ms1.Mallocs-ms0.Mallocs) / float64(len(st.Latency)), nil
}

// replayLoopback replays the warm-up (untimed) and the latency phase
// sequentially through pkg/client against an in-process httptest server,
// returning each latency-phase call's duration in ns.
func replayLoopback(st *Stream, chk *checker, cold bool) ([]float64, error) {
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()
	c := client.New(ts.URL, client.WithRetries(0))
	ctx := context.Background()
	for _, r := range st.Warmup {
		if _, err := call(ctx, c, r); err != nil {
			return nil, err
		}
	}
	var out []float64
	for i, r := range st.Latency {
		id := chk.tr.start("loopback."+r.Kind, 0, -1-i)
		t := time.Now()
		resp, err := call(ctx, c, r)
		d := time.Since(t)
		chk.tr.end(id)
		if err != nil {
			return nil, err
		}
		chk.checkResponse(r, resp, sourcesFor(r, cold), -1-i)
		out = append(out, float64(d.Nanoseconds()))
	}
	return out, nil
}

// rung is one row of the layer ladder: a layer and the per-request p50
// time (ns) measured through it.
type rung struct {
	name string
	ns   float64
}

// ladder renders the layer ladder: each rung's time, its share of the
// end-to-end time, the increment over the rung below, and the remainder no
// rung accounts for.
func ladder(title string, e2eNs float64, rungs []rung) []string {
	out := []string{title}
	out = append(out, fmt.Sprintf("  %-44s %12s %8s %12s", "layer", "us", "share", "added us"))
	prev := 0.0
	for _, r := range rungs {
		out = append(out, fmt.Sprintf("  %-44s %12.1f %7.1f%% %12.1f", r.name, r.ns/1e3, 100*frac(r.ns, e2eNs), (r.ns-prev)/1e3))
		prev = r.ns
	}
	out = append(out, fmt.Sprintf("  %-44s %12.1f %7.1f%% %12.1f", "unaccounted (end-to-end minus top rung)", (e2eNs-prev)/1e3, 100*frac(e2eNs-prev, e2eNs), (e2eNs-prev)/1e3))
	return out
}
