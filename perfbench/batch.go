package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/stats"
	"repro/pkg/api"
	"repro/pkg/client"
)

// jobRun is one job of a pass as the client saw it.
type jobRun struct {
	job          Job
	status       api.JobStatus
	submit, done time.Time
	results      []byte
	calls        []outcome // the submit and final status calls
}

// runPass submits the sequence to one server, one job at a time: each job
// is submitted when the previous one's result stream has ended.
func runPass(c *client.Client, seq []Job, distributed, traced bool) ([]jobRun, error) {
	var out []jobRun
	for _, j := range seq {
		spec := j.Spec
		spec.Distributed = distributed
		run := jobRun{job: j, submit: time.Now()}
		var st *api.JobStatus
		o := timeCall(traced, func(ctx context.Context) (err error) { st, err = c.SubmitJob(ctx, spec); return err })
		run.calls = append(run.calls, o)
		if err := o.err; err != nil {
			return nil, fmt.Errorf("submit %s: %w", j.Name, err)
		}
		ctx := context.Background()
		rc, err := c.JobResults(ctx, st.ID, 0)
		if err != nil {
			return nil, fmt.Errorf("results %s: %w", j.Name, err)
		}
		run.results, err = io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return nil, fmt.Errorf("results %s: %w", j.Name, err)
		}
		run.done = time.Now()
		var final *api.JobStatus
		o = timeCall(traced, func(ctx context.Context) (err error) { final, err = c.Job(ctx, st.ID); return err })
		run.calls = append(run.calls, o)
		if err := o.err; err != nil {
			return nil, fmt.Errorf("status %s: %w", j.Name, err)
		}
		if final.State != api.JobDone {
			return nil, fmt.Errorf("job %s ended %s: %s", j.Name, final.State, final.Error)
		}
		run.status = *final
		out = append(out, run)
	}
	return out, nil
}

// runBatch runs batch-jobs: the job sequence once with local jobs on a
// fresh server, then once distributed over the local-loopback fabric on a
// second fresh server.
func runBatch(cfg config, seq []Job) (*result, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	chk := newChecker(tr)
	censusRef := stats.Figure2Parallel(censusMaxN, 0) // reference; not part of setup_s

	res := &result{}
	var setups []float64
	var local, dist *proc
	dataDir := func(name string) (string, error) {
		d := filepath.Join(cfg.work, fmt.Sprintf("jobs-%s-%d-%d", name, os.Getpid(), len(setups)))
		if err := os.RemoveAll(d); err != nil {
			return "", err
		}
		return d, os.MkdirAll(d, 0o755)
	}
	var dirs []string
	defer func() {
		for _, d := range dirs {
			_ = os.RemoveAll(d)
		}
	}()
	for i := 0; i < setupReps; i++ {
		ld, err := dataDir("local")
		if err != nil {
			return nil, err
		}
		dd, err := dataDir("dist")
		if err != nil {
			return nil, err
		}
		dirs = append(dirs, ld, dd)
		t0 := time.Now()
		if local, err = boot(cfg.server, "-data-dir", ld); err != nil {
			return nil, err
		}
		if dist, err = boot(cfg.server, "-data-dir", dd, "-fabric-secret", "perfbench"); err != nil {
			local.stop()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			local.stop()
			dist.stop()
		}
	}
	defer local.stop()
	defer dist.stop()

	ctx := context.Background()
	lc, dc := newClient(local.base, cfg.trace), newClient(dist.base, cfg.trace)
	lBefore, err := scrape(ctx, lc)
	if err != nil {
		return nil, err
	}
	dBefore, err := scrape(ctx, dc)
	if err != nil {
		return nil, err
	}
	cpu0, err := cpuOf(local, dist)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	localRuns, err := runPass(lc, seq, false, cfg.trace)
	if err != nil {
		return nil, err
	}
	distRuns, err := runPass(dc, seq, true, cfg.trace)
	if err != nil {
		return nil, err
	}
	makespan := time.Since(start)
	cpu1, err := cpuOf(local, dist)
	if err != nil {
		return nil, err
	}
	lAfter, err := scrape(ctx, lc)
	if err != nil {
		return nil, err
	}
	dAfter, err := scrape(ctx, dc)
	if err != nil {
		return nil, err
	}
	rss := 0.0
	for _, p := range []*proc{local, dist} {
		r, err := p.peakRSSMB()
		if err != nil {
			return nil, err
		}
		rss += r
	}

	// A local job fails when its rows are wrong, a distributed one when its
	// results differ from the local job's.
	res.attempted = len(localRuns) + len(distRuns)
	for i, lr := range localRuns {
		n := len(chk.failures)
		switch lr.job.Spec.Kind {
		case api.JobCensus:
			chk.checkCensus(lr.results, lr.job.Spec.Census.MaxN, censusRef)
		case api.JobPlanSweep:
			chk.checkPlanSweep(lr.results, *lr.job.Spec.PlanSweep)
		}
		if len(chk.failures) > n {
			res.failed++
		}
		n = len(chk.failures)
		chk.checkIdentical(lr.job.Name, lr.results, distRuns[i].results)
		if len(chk.failures) > n {
			res.failed++
		}
	}

	var jobMS []float64
	byName := map[string]float64{}
	for _, r := range append(append([]jobRun{}, localRuns...), distRuns...) {
		jobMS = append(jobMS, float64(r.done.Sub(r.submit).Nanoseconds())/1e6)
	}
	for _, r := range localRuns {
		byName[r.job.Name] = r.done.Sub(r.submit).Seconds()
	}
	n := len(jobMS)
	res.add(&res.e2e, "setup_s", "s", median(setups), fmt.Sprintf("median of %d boot pairs", setupReps))
	res.add(&res.e2e, "server_rss_mb", "MiB", rss, "VmHWM, summed over the two servers")
	res.add(&res.e2e, "throughput_rps", "1/s", float64(n)/makespan.Seconds(), fmt.Sprintf("jobs per second over the %d-job sequence", n))
	res.add(&res.e2e, "latency_p50_ms", "ms", median(jobMS), fmt.Sprintf("job submit to done, n=%d", n))
	res.add(&res.e2e, "latency_p99_ms", "ms", quantile(jobMS, 0.99), fmt.Sprintf("slowest job, n=%d", n))
	res.add(&res.e2e, "server_cpu_s", "s", cpu1-cpu0, "user+system of both servers over both passes")
	res.add(&res.e2e, "job_makespan_s", "s", makespan.Seconds(), "first submit to last done")
	res.add(&res.e2e, "census_job_s", "s", byName["census"], "local, submit to done")
	res.add(&res.e2e, "plansweep_job_s", "s", byName["plansweep_mesh"], "local 3-D mesh sweep, submit to done")
	res.add(&res.e2e, "failed_frac", "ratio", frac(float64(res.failed), float64(res.attempted)), fmt.Sprintf("%d of %d", res.failed, res.attempted))

	if cfg.trace {
		if err := batchLayers(cfg, chk, res, localRuns, distRuns, [4]promSample{lBefore, lAfter, dBefore, dAfter}); err != nil {
			return nil, err
		}
		if err := tr.write(filepath.Join(cfg.work, fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))); err != nil {
			return nil, err
		}
	}
	res.failures = chk.failures
	return res, nil
}

// cpuOf sums the servers' CPU seconds.
func cpuOf(ps ...*proc) (float64, error) {
	var t float64
	for _, p := range ps {
		s, err := p.cpuSeconds()
		if err != nil {
			return 0, err
		}
		t += s
	}
	return t, nil
}

// batchLayers computes the per-layer metrics of batch-jobs and its ladder:
// the chunk kernels (jobs.ExecuteChunk), the in-process job loop
// (jobs.Manager), and the booted server.
func batchLayers(cfg config, chk *checker, res *result, localRuns, distRuns []jobRun, prom [4]promSample) error {
	L := &res.layers
	tr := chk.tr
	// Client layer: the submit and status calls (the result streams
	// long-poll for the whole job, so they time the job, not the client).
	var calls []outcome
	for _, r := range append(append([]jobRun{}, localRuns...), distRuns...) {
		calls = append(calls, r.calls...)
	}
	clientLayers(res, calls)
	serverLayers(res, mergeProm(prom[0], prom[2]), mergeProm(prom[1], prom[3]), meanService(calls), []string{"jobs-submit", "jobs-status"})
	res.absent = append(res.absent,
		"loadgen.late_p99_ms: batch-jobs submits each job when the previous one is done; there is no open loop",
		"server.handler_*, server.l0_hit_frac, server.coalesced, server.shed, server.tier_*: batch-jobs sends no plan, embed or compare request")
	// Each job runs twice in-process, back to back so that the machine's
	// speed drift cancels: every chunk through jobs.ExecuteChunk (the
	// kernels), then the whole job through a jobs.Manager (the job loop).
	// Each side keeps one planner across the sequence, like the server.
	kernel, loop, err := jobLayers(cfg, localRuns, tr)
	if err != nil {
		return err
	}
	var kernelSum, loopSum, bootedRun, bootedClient float64
	for i, r := range localRuns {
		name := r.job.Name
		run := float64(r.status.FinishedUnixMS-r.status.StartedUnixMS) / 1e3
		res.add(L, "jobs.kernel_s."+name, "s", kernel[name], fmt.Sprintf("%d chunks", r.status.Progress.ChunksTotal))
		res.add(L, "jobs.overhead_s."+name, "s", loop[name]-kernel[name], "in-process job loop run time minus kernel_s")
		res.add(L, "jobs.result_bytes."+name, "bytes", float64(r.status.Progress.ResultBytes), "")
		res.add(L, "jobs.shapes_per_s."+name, "1/s", frac(float64(r.status.Progress.Shapes), run), "")
		d := distRuns[i].done.Sub(distRuns[i].submit).Seconds()
		res.add(L, "fabric.dist_over_local."+name, "ratio", frac(d, r.done.Sub(r.submit).Seconds()), "submit to done")
		kernelSum += kernel[name]
		loopSum += loop[name]
		bootedRun += run
		bootedClient += r.done.Sub(r.submit).Seconds()
	}
	var wait []float64
	for _, r := range localRuns {
		wait = append(wait, float64(r.status.StartedUnixMS-r.status.CreatedUnixMS))
	}
	res.add(L, "jobs.queue_wait_ms", "ms", mean(wait), "started minus created, 1 ms resolution")
	db, da := prom[2], prom[3]
	res.add(L, "fabric.chunks_dispatched", "count", delta(db, da, "embedserver_fabric_chunks_dispatched_total"), "")
	res.add(L, "fabric.chunks_requeued", "count", delta(db, da, "embedserver_fabric_chunks_requeued_total"), "")
	kernelLayers(res, chk)
	title := fmt.Sprintf("layer ladder (%s): the local job sequence, each layer summed over its %d jobs; end-to-end %.3f s from submit to done", cfg.workload, len(localRuns), bootedClient)
	res.ladder = ladder(title, bootedClient*1e9, []rung{
		{"kernel (jobs.ExecuteChunk, summed)", kernelSum * 1e9},
		{"job loop (in-process jobs.Manager)", loopSum * 1e9},
		{"booted server, started to finished", bootedRun * 1e9},
	})
	return nil
}

// jobLayers times each local job of the sequence in-process: the sum of
// its chunks through jobs.ExecuteChunk, then its started-to-finished time
// in a jobs.Manager, both in seconds.
func jobLayers(cfg config, runs []jobRun, tr *tracer) (kernel, loop map[string]float64, err error) {
	dir, err := os.MkdirTemp(cfg.work, "jobs-inproc-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	m, err := jobs.Open(jobs.Config{DataDir: dir, Planner: core.NewPlanner(core.DefaultOptions)})
	if err != nil {
		return nil, nil, err
	}
	defer m.Close(context.Background())
	planner := core.NewPlanner(core.DefaultOptions)
	kernel, loop = map[string]float64{}, map[string]float64{}
	for i, r := range runs {
		j := r.job
		root := tr.start("jobs.kernel."+j.Name, 0, i)
		for ch := 0; ch < r.status.Progress.ChunksTotal; ch++ {
			id := tr.start("jobs.ExecuteChunk", root, i)
			t := time.Now()
			_, err := jobs.ExecuteChunk(context.Background(), api.ChunkRequest{Version: api.Version, Job: j.Spec, Chunk: ch}, 0, planner)
			kernel[j.Name] += time.Since(t).Seconds()
			tr.end(id)
			if err != nil {
				return nil, nil, fmt.Errorf("kernel %s chunk %d: %w", j.Name, ch, err)
			}
		}
		tr.end(root)
		id := tr.start("jobs.manager."+j.Name, 0, i)
		st, err := m.Submit(j.Spec)
		if err != nil {
			return nil, nil, err
		}
		for !st.State.Terminal() {
			time.Sleep(time.Millisecond)
			if st, err = m.Status(st.ID); err != nil {
				return nil, nil, err
			}
		}
		tr.end(id)
		if st.State != api.JobDone {
			return nil, nil, fmt.Errorf("in-process job %s ended %s: %s", j.Name, st.State, st.Error)
		}
		loop[j.Name] = float64(st.FinishedUnixMS-st.StartedUnixMS) / 1e3
	}
	return kernel, loop, nil
}
