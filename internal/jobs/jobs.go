// Package jobs is the asynchronous batch-sweep subsystem: a bounded job
// manager that runs the paper's whole-range sweeps (the Figure 2 coverage
// census, the ε-distribution table, full planner sweeps) as resumable
// background jobs over the shared sweep pool.
//
// Determinism is the load-bearing property.  A job's work is cut into
// chunks that execute sequentially in index order (parallelism lives inside
// a chunk, behind sweep.FoldCtx, whose reduction is index-ordered); every
// aggregate is integer-derived; records carry no timestamps.  The NDJSON
// result stream is therefore a pure function of the request — independent
// of worker count, scheduling, retries and resume points — which is what
// lets the manager checkpoint mid-job and, after a kill, truncate the
// stream to the last checkpoint and replay forward to a byte-identical
// final result.  It is also what makes streaming sound: bytes handed to a
// client are committed in the sense that any future replay reproduces them
// exactly, so a client can resume a broken stream by byte offset.
//
// Failure isolation: a panicking chunk is recovered, retried up to the
// configured budget, and fails only its own job; the manager, its other
// jobs, and the serving path stay up.
package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/pkg/api"
)

// Sentinel errors the API layer maps onto the error envelope.
var (
	// ErrQueueFull rejects a submission when the bounded queue is full.  The
	// job was not accepted, so resubmitting later is safe.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrNotFound reports an unknown job id.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrBadRequest wraps every submission-validation failure.
	ErrBadRequest = errors.New("jobs: invalid request")
	// ErrClosed rejects submissions to a closing manager.
	ErrClosed = errors.New("jobs: manager closed")
	// ErrNotReady reports an artifact download before the producing job
	// reached the done state.
	ErrNotReady = errors.New("jobs: job has not finished")
)

// errShutdown and errCancelled distinguish why a run's context died:
// shutdown checkpoints and leaves the job resumable, cancel is terminal.
var (
	errShutdown  = errors.New("jobs: manager shutting down")
	errCancelled = errors.New("jobs: cancelled by client")
	// errAbandoned is returned by the afterChunk test hook to make a run
	// vanish without any further disk write — the closest a test can get to
	// SIGKILL while staying in-process.
	errAbandoned = errors.New("jobs: run abandoned (test hook)")
)

// Config parameterizes a Manager.
type Config struct {
	// DataDir is the root of the on-disk job state (required).
	DataDir string
	// QueueDepth bounds the jobs waiting to run; submissions beyond it get
	// ErrQueueFull.  Default 8.
	QueueDepth int
	// Runners is the number of jobs executing concurrently.  Default 1:
	// batch sweeps are throughput work, and one at a time keeps them from
	// starving the interactive serving path.
	Runners int
	// DefaultWorkers is the per-chunk parallelism when a request does not
	// set workers (< 1 means GOMAXPROCS).
	DefaultWorkers int
	// MaxWorkers caps the per-chunk parallelism a request may ask for.
	// Default 32.
	MaxWorkers int
	// CheckpointEvery is the number of chunks between checkpoints.  Default
	// 8.  A kill loses at most that much progress — never correctness.
	CheckpointEvery int
	// RetryLimit is how many times a panicked chunk is retried before the
	// job fails.  Default 2.
	RetryLimit int
	// Planner, when set, is shared with the plansweep jobs (the server
	// passes its own so job planning warms the same plan cache).
	Planner *core.Planner
	// Fabric, when set, enables distributed jobs: submissions with
	// "distributed": true shard their chunk range across the pool's peers
	// (falling back to the local chunk loop — byte-identically — if a
	// resumed job finds no pool configured).
	Fabric *fabric.Pool
	// Logger receives job lifecycle records; nil means slog.Default().
	Logger *slog.Logger

	// Test hooks (white-box tests only).  afterChunk runs after chunk's
	// records are written but before the next checkpoint decision; returning
	// errAbandoned makes the run stop dead with no further disk writes,
	// simulating a kill.  beforeRun blocks a job at the top of its run.
	// beforeAttempt runs inside the panic-recovery scope of every chunk
	// attempt, so tests can inject panics.
	afterChunk    func(jobID string, chunk int) error
	beforeRun     func(jobID string)
	beforeAttempt func(jobID string, chunk, attempt int)
}

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 8
	}
	if cfg.Runners < 1 {
		cfg.Runners = 1
	}
	if cfg.MaxWorkers < 1 {
		cfg.MaxWorkers = 32
	}
	if cfg.CheckpointEvery < 1 {
		cfg.CheckpointEvery = 8
	}
	if cfg.RetryLimit < 0 {
		cfg.RetryLimit = 0
	} else if cfg.RetryLimit == 0 {
		cfg.RetryLimit = 2
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.Planner == nil {
		cfg.Planner = core.NewPlanner(core.DefaultOptions)
	}
	return cfg
}

// job is the in-memory state of one job.  All mutable fields are guarded by
// mu; the result stream's committed length is mirrored here so status and
// streaming never touch the file under the runner.
type job struct {
	id   string
	kind api.JobKind
	req  api.JobSubmitRequest
	dir  string

	mu           sync.Mutex
	state        api.JobState
	errMsg       string
	createdMS    int64
	startedMS    int64
	finishedMS   int64
	chunksDone   int
	chunksTotal  int
	shapes       uint64
	retries      int
	resumed      int
	committed    int64
	shapesPerSec float64
	etaMS        int64
	cancelled    bool
	cancelRun    context.CancelCauseFunc
	// dispatch is the live fabric dispatcher while a distributed run is in
	// flight; status reads it for the per-peer Fabric block.
	dispatch *fabric.Dispatch
}

func (j *job) statusLocked() api.JobStatus {
	st := api.JobStatus{
		Version: api.Version, ID: j.id, Kind: j.kind, State: j.state, Error: j.errMsg,
		Progress: api.JobProgress{
			ChunksDone: j.chunksDone, ChunksTotal: j.chunksTotal,
			Shapes: j.shapes, Retries: j.retries, ResultBytes: j.committed,
		},
		CreatedUnixMS: j.createdMS, StartedUnixMS: j.startedMS,
		FinishedUnixMS: j.finishedMS, Resumed: j.resumed,
	}
	if j.state == api.JobRunning {
		st.Progress.ShapesPerSec = j.shapesPerSec
		st.Progress.ETAMS = j.etaMS
	}
	req := j.req
	st.Request = &req
	if j.dispatch != nil && j.state == api.JobRunning {
		fp := j.dispatch.Progress()
		st.Fabric = &fp
	}
	return st
}

func (j *job) status() api.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// Manager owns the job queue, the runner goroutines and the on-disk state.
type Manager struct {
	cfg Config
	log *slog.Logger

	ctx    context.Context
	cancel context.CancelCauseFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // creation order, for List
	queue  chan *job
	closed bool
	seq    int
	prefix string

	chunksDone  atomic.Uint64
	shapesDone  atomic.Uint64
	retriesTot  atomic.Uint64
	resultBytes atomic.Int64
}

// Open creates (or reopens) a manager over cfg.DataDir, restores every job
// found there — terminal jobs become listable history, queued and running
// jobs are re-queued to resume from their last checkpoint — and starts the
// runner goroutines.
func Open(cfg Config) (*Manager, error) {
	if cfg.DataDir == "" {
		return nil, errors.New("jobs: Config.DataDir is required")
	}
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	m := &Manager{
		cfg:    cfg,
		log:    cfg.Logger,
		ctx:    ctx,
		cancel: cancel,
		jobs:   map[string]*job{},
		prefix: fmt.Sprintf("%08x", rand.Uint32()),
	}
	resumable, err := m.restore()
	if err != nil {
		cancel(nil)
		return nil, err
	}
	// The queue must admit every resumed job on top of QueueDepth fresh
	// submissions, so its capacity is sized after the restore scan.
	m.queue = make(chan *job, cfg.QueueDepth+len(resumable))
	for _, j := range resumable {
		m.queue <- j
	}
	for i := 0; i < cfg.Runners; i++ {
		m.wg.Add(1)
		go m.runnerLoop()
	}
	return m, nil
}

// restore scans the data dir and rebuilds the job table in creation order.
// Jobs persisted mid-flight (queued or running) are returned for
// re-queueing, marked resumed.  Unreadable or version-skewed directories
// are skipped with a warning — one corrupt job must not brick the manager.
func (m *Manager) restore() ([]*job, error) {
	entries, err := os.ReadDir(m.cfg.DataDir)
	if err != nil {
		return nil, err
	}
	var loaded []*job
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(m.cfg.DataDir, e.Name())
		st, err := readStatusFile(dir)
		if err != nil {
			m.log.Warn("jobs: skipping unreadable job dir", "dir", dir, "err", err)
			continue
		}
		if st.Version != api.JobSchemaVersion || st.ID == "" || st.Request == nil {
			m.log.Warn("jobs: skipping job with unknown schema", "dir", dir, "version", st.Version)
			continue
		}
		j := &job{
			id: st.ID, kind: st.Kind, req: *st.Request, dir: dir,
			state: st.State, errMsg: st.Error,
			createdMS: st.CreatedUnixMS, startedMS: st.StartedUnixMS, finishedMS: st.FinishedUnixMS,
			chunksDone: st.Progress.ChunksDone, chunksTotal: st.Progress.ChunksTotal,
			shapes: st.Progress.Shapes, retries: st.Progress.Retries,
			resumed: st.Resumed, committed: st.Progress.ResultBytes,
		}
		loaded = append(loaded, j)
	}
	sort.Slice(loaded, func(a, b int) bool {
		if loaded[a].createdMS != loaded[b].createdMS {
			return loaded[a].createdMS < loaded[b].createdMS
		}
		return loaded[a].id < loaded[b].id
	})
	var resumable []*job
	for _, j := range loaded {
		m.jobs[j.id] = j
		m.order = append(m.order, j.id)
		if j.state.Terminal() {
			continue
		}
		// The committed count is rebuilt from the checkpoint when the run
		// restarts; until then advertise the checkpointed prefix only.
		if ck, err := readCheckpoint(j.dir); err == nil && ck != nil && ck.JobID == j.id && ck.Version == api.JobSchemaVersion {
			j.committed = ck.Offset
			j.chunksDone = ck.NextChunk
			j.shapes = ck.Shapes
		} else {
			j.committed, j.chunksDone, j.shapes = 0, 0, 0
		}
		j.state = api.JobQueued
		j.resumed++
		m.persistStatus(j)
		resumable = append(resumable, j)
		m.log.Info("jobs: resuming job from checkpoint",
			"job", j.id, "kind", j.kind, "next_chunk", j.chunksDone, "offset", j.committed)
	}
	return resumable, nil
}

// Submit validates the request, persists a queued job and enqueues it.
// The reply is the job's initial status (its id above all).
func (m *Manager) Submit(req api.JobSubmitRequest) (api.JobStatus, error) {
	if _, err := buildRunner(&req, m.workersFor(&req), m.cfg.Planner, ""); err != nil {
		return api.JobStatus{}, err
	}
	if req.Distributed && m.cfg.Fabric == nil {
		return api.JobStatus{}, fmt.Errorf(
			"%w: distributed jobs need a fabric pool (start the server with -fabric-secret)", ErrBadRequest)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return api.JobStatus{}, ErrClosed
	}
	m.seq++
	id := fmt.Sprintf("j-%s-%06d", m.prefix, m.seq)
	j := &job{
		id: id, kind: req.Kind, req: req,
		dir:   filepath.Join(m.cfg.DataDir, id),
		state: api.JobQueued, createdMS: nowUnixMS(),
	}
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.mu.Unlock()

	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		m.forget(id)
		return api.JobStatus{}, err
	}
	m.persistStatus(j)
	select {
	case m.queue <- j:
	default:
		m.forget(id)
		os.RemoveAll(j.dir)
		return api.JobStatus{}, ErrQueueFull
	}
	m.log.Info("jobs: submitted", "job", id, "kind", req.Kind)
	return j.status(), nil
}

func (m *Manager) forget(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.jobs, id)
	for i, v := range m.order {
		if v == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
}

func (m *Manager) workersFor(req *api.JobSubmitRequest) int {
	w := req.Workers
	if w < 1 {
		w = m.cfg.DefaultWorkers
	}
	if w > m.cfg.MaxWorkers {
		w = m.cfg.MaxWorkers
	}
	return w
}

// Status returns a job's current status.
func (m *Manager) Status(id string) (api.JobStatus, error) {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j == nil {
		return api.JobStatus{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return j.status(), nil
}

// List returns every job's status in creation order.
func (m *Manager) List() []api.JobStatus {
	m.mu.Lock()
	js := make([]*job, 0, len(m.order))
	for _, id := range m.order {
		js = append(js, m.jobs[id])
	}
	m.mu.Unlock()
	out := make([]api.JobStatus, len(js))
	for i, j := range js {
		out[i] = j.status()
	}
	return out
}

// Cancel requests cancellation.  A queued job is finalized immediately; a
// running one stops within a chunk item and finalizes on the runner.
// Cancelling a terminal job is a no-op returning its status.
func (m *Manager) Cancel(id string) (api.JobStatus, error) {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j == nil {
		return api.JobStatus{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	j.mu.Lock()
	switch {
	case j.state.Terminal():
		st := j.statusLocked()
		j.mu.Unlock()
		return st, nil
	case j.state == api.JobQueued:
		j.cancelled = true
		j.state = api.JobCancelled
		j.finishedMS = nowUnixMS()
		st := j.statusLocked()
		j.mu.Unlock()
		m.persistStatus(j)
		m.log.Info("jobs: cancelled while queued", "job", id)
		return st, nil
	default: // running
		j.cancelled = true
		if j.cancelRun != nil {
			j.cancelRun(errCancelled)
		}
		st := j.statusLocked()
		j.mu.Unlock()
		return st, nil
	}
}

// ResultsInfo describes a job's result stream for the streaming endpoint.
type ResultsInfo struct {
	Path      string       // on-disk NDJSON file
	Committed int64        // replay-stable length; never stream beyond this
	State     api.JobState // terminal ⇒ Committed is final
}

// Results returns the streaming view of a job's result file.
func (m *Manager) Results(id string) (ResultsInfo, error) {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j == nil {
		return ResultsInfo{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return ResultsInfo{
		Path:      filepath.Join(j.dir, resultsFile),
		Committed: j.committed,
		State:     j.state,
	}, nil
}

// ArtifactPath returns the artifact file of a finished plancensus job.
// Unknown ids are ErrNotFound, other kinds ErrBadRequest, and unfinished
// jobs ErrNotReady (the file would be torn or still growing).
func (m *Manager) ArtifactPath(id string) (string, error) {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j == nil {
		return "", fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.kind != api.JobPlanCensus {
		return "", fmt.Errorf("%w: job kind %q produces no artifact", ErrBadRequest, j.kind)
	}
	if j.state != api.JobDone {
		return "", fmt.Errorf("%w: job %s is %s", ErrNotReady, id, j.state)
	}
	return filepath.Join(j.dir, ArtifactFile), nil
}

// TracePath returns the span-tree file of a job's last run (written when
// tracing is active).  Unknown ids are ErrNotFound; a job whose run has not
// produced a trace yet (still running its first chunks, or tracing disabled)
// is ErrNotReady.
func (m *Manager) TracePath(id string) (string, error) {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j == nil {
		return "", fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	p := filepath.Join(j.dir, traceFile)
	if _, err := os.Stat(p); err != nil {
		return "", fmt.Errorf("%w: job %s has no trace (tracing off, or the run has not finished)", ErrNotReady, id)
	}
	return p, nil
}

// Stats is the manager snapshot exported on /metrics.
type Stats struct {
	Queued, Running, Done, Failed, Cancelled int
	QueueCap                                 int
	ChunksDone, Shapes, Retries              uint64
	ResultBytes                              int64
}

// Stats counts jobs by state and reports lifetime totals.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	js := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		js = append(js, j)
	}
	s := Stats{QueueCap: cap(m.queue)}
	m.mu.Unlock()
	for _, j := range js {
		j.mu.Lock()
		switch j.state {
		case api.JobQueued:
			s.Queued++
		case api.JobRunning:
			s.Running++
		case api.JobDone:
			s.Done++
		case api.JobFailed:
			s.Failed++
		case api.JobCancelled:
			s.Cancelled++
		}
		j.mu.Unlock()
	}
	s.ChunksDone = m.chunksDone.Load()
	s.Shapes = m.shapesDone.Load()
	s.Retries = m.retriesTot.Load()
	s.ResultBytes = m.resultBytes.Load()
	return s
}

// Close stops accepting submissions, interrupts running jobs (which
// checkpoint and stay resumable on disk) and waits for the runners to
// drain, up to ctx's deadline.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.cancel(errShutdown)
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (m *Manager) runnerLoop() {
	defer m.wg.Done()
	for {
		select {
		case <-m.ctx.Done():
			return
		case j := <-m.queue:
			m.runJob(j)
		}
	}
}

// runJob drives one job to a terminal state (or to a resumable stop on
// shutdown / abandon).
func (m *Manager) runJob(j *job) {
	if hook := m.cfg.beforeRun; hook != nil {
		hook(j.id)
	}
	runner, err := buildRunner(&j.req, m.workersFor(&j.req), m.cfg.Planner, j.dir)
	if err != nil {
		m.finalize(j, api.JobFailed, err)
		return
	}
	// Release runner-held resources (the plancensus artifact builder) on
	// every exit path; a cleanly finished runner has already let them go.
	if c, ok := runner.(runnerCloser); ok {
		defer c.close()
	}
	jctx, cancel := context.WithCancelCause(m.ctx)
	defer cancel(nil)
	j.mu.Lock()
	if j.cancelled || j.state.Terminal() {
		j.mu.Unlock()
		return // cancelled while queued; already finalized
	}
	j.state = api.JobRunning
	if j.startedMS == 0 {
		j.startedMS = nowUnixMS()
	}
	j.cancelRun = cancel
	j.mu.Unlock()
	m.persistStatus(j)

	jctx, span := obs.StartRoot(jctx, "job")
	if span != nil {
		span.SetAttr("job", j.id)
		span.SetAttr("kind", string(j.kind))
	}
	err = m.runBody(jctx, j, runner)
	j.mu.Lock()
	j.cancelRun = nil
	j.mu.Unlock()

	// Persist the trace before the terminal status: a client that saw the
	// job finish must be able to fetch its trace immediately.
	if !errors.Is(err, errAbandoned) {
		m.writeTrace(j, span)
	}
	switch {
	case err == nil:
		m.finalize(j, api.JobDone, nil)
	case errors.Is(err, errAbandoned):
		return // test hook: simulate a kill — no finalize, no disk writes
	case jctx.Err() != nil && errors.Is(context.Cause(jctx), errCancelled):
		m.finalize(j, api.JobCancelled, nil)
	case jctx.Err() != nil && errors.Is(context.Cause(jctx), errShutdown):
		// Leave the job queued on disk; the checkpoint written on the way
		// out makes the next Open resume it.
		j.mu.Lock()
		j.state = api.JobQueued
		j.mu.Unlock()
		m.persistStatus(j)
		m.log.Info("jobs: suspended for shutdown", "job", j.id, "chunks_done", j.chunksDone)
	default:
		m.finalize(j, api.JobFailed, err)
	}
}

// finalize moves a job to a terminal state and persists it.  A concurrent
// user cancel that already marked the job cancelled wins over Done so the
// API never reports a cancelled job as completed.
func (m *Manager) finalize(j *job, state api.JobState, err error) {
	j.mu.Lock()
	if j.state == api.JobCancelled && state == api.JobDone {
		state = api.JobCancelled
	}
	j.state = state
	if err != nil {
		j.errMsg = err.Error()
	}
	j.finishedMS = nowUnixMS()
	j.shapesPerSec, j.etaMS = 0, 0
	j.mu.Unlock()
	m.persistStatus(j)
	switch state {
	case api.JobFailed:
		m.log.Error("jobs: failed", "job", j.id, "err", err)
	default:
		m.log.Info("jobs: finished", "job", j.id, "state", string(state),
			"shapes", j.shapes, "result_bytes", j.committed)
	}
}

// runBody executes a job's chunks and everything around them: restore from
// the checkpoint and truncate the stream to its offset, commit each chunk
// (append its records, advance progress, checkpoint every CheckpointEvery
// chunks), checkpoint once more when the context dies, and append the
// finish records.  Only the chunk producer differs between a local and a
// distributed run — the in-order loop over runChunk, or a fabric.Dispatch
// folding shipped chunks strictly in index order on this goroutine.  Both
// feed commit in chunk-index order, so their result streams, checkpoints
// and final aggregates are byte-identical.  A distributed job resumed on a
// server without a pool therefore falls back to the local producer.
func (m *Manager) runBody(ctx context.Context, j *job, r kindRunner) error {
	f, err := os.OpenFile(filepath.Join(j.dir, resultsFile), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()

	total := r.chunks()
	next, offset, shapes, retries := 0, int64(0), uint64(0), 0
	if ck, err := readCheckpoint(j.dir); err == nil && ck != nil &&
		ck.Version == api.JobSchemaVersion && ck.JobID == j.id {
		if err := r.restore(ck.Agg); err == nil {
			next, offset, shapes, retries = ck.NextChunk, ck.Offset, ck.Shapes, ck.Retries
		} else {
			m.log.Warn("jobs: checkpoint aggregate rejected; restarting job from scratch",
				"job", j.id, "err", err)
		}
	}
	// Drop any bytes past the resume point: they were written after the
	// checkpoint and will be regenerated identically.
	if err := f.Truncate(offset); err != nil {
		return err
	}
	if _, err := f.Seek(offset, 0); err != nil {
		return err
	}
	var d *fabric.Dispatch
	if j.req.Distributed && m.cfg.Fabric != nil {
		d = fabric.NewDispatch(m.cfg.Fabric, j.req, total)
		defer func() {
			j.mu.Lock()
			j.dispatch = nil
			j.mu.Unlock()
		}()
	}
	j.mu.Lock()
	j.chunksDone, j.chunksTotal = next, total
	j.shapes, j.retries, j.committed = shapes, retries, offset
	j.dispatch = d
	j.mu.Unlock()

	runStart := time.Now()
	chunksAtStart, shapesAtStart := next, shapes
	lastCkpt := next
	var buf bytes.Buffer
	// commit appends chunk's records (in buf) to the stream; n is its shape
	// count.  On return next is the resume point.
	commit := func(chunk int, n uint64) error {
		if _, err := f.Write(buf.Bytes()); err != nil {
			return err
		}
		written := int64(buf.Len())
		offset += written
		shapes += n
		next = chunk + 1
		m.chunksDone.Add(1)
		m.shapesDone.Add(n)
		m.resultBytes.Add(written)

		elapsed := time.Since(runStart).Seconds()
		j.mu.Lock()
		j.chunksDone = next
		j.shapes = shapes
		j.committed = offset
		j.retries = retries
		if elapsed > 0 {
			// Throughput and ETA reflect this run only: a resumed job should
			// not let pre-kill progress inflate its live rate.
			j.shapesPerSec = float64(shapes-shapesAtStart) / elapsed
			perChunk := elapsed / float64(next-chunksAtStart)
			j.etaMS = int64(perChunk * float64(total-next) * 1000)
		}
		j.mu.Unlock()

		if hook := m.cfg.afterChunk; hook != nil {
			if err := hook(j.id, chunk); err != nil {
				return err
			}
		}
		if next < total && next-lastCkpt >= m.cfg.CheckpointEvery {
			var owners map[string]string
			if d != nil {
				owners = d.Owners()
			}
			if err := m.writeCheckpoint(f, j, r, next, offset, shapes, retries, owners); err != nil {
				return err
			}
			lastCkpt = next
			m.persistStatus(j)
		}
		return nil
	}

	if d != nil {
		err = d.Run(ctx, next, func(res *api.ChunkResult) error {
			buf.Reset()
			n, err := r.fold(res, &buf)
			if err != nil {
				return err
			}
			return commit(res.Chunk, n)
		})
	} else {
		for chunk := next; chunk < total; chunk++ {
			if err = ctx.Err(); err != nil {
				break
			}
			var n uint64
			if n, err = m.runChunk(ctx, j, r, chunk, &buf, &retries); err != nil {
				break
			}
			if err = commit(chunk, n); err != nil {
				break
			}
		}
	}
	if err != nil {
		// A dying context stops either producer between commits, and a
		// chunk attempt or fold it interrupts leaves the aggregate untouched,
		// so the last committed chunk is the resume point.  Any other error —
		// a failed write, the abandon hook — leaves the disk as it is.
		if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			m.writeCheckpoint(f, j, r, next, offset, shapes, retries, nil)
		}
		return err
	}

	// Checkpoint at (total, pre-finish offset): a crash between here and the
	// terminal status persist replays zero chunks and re-appends the finish
	// records onto an identical prefix.
	if err := m.writeCheckpoint(f, j, r, total, offset, shapes, retries, nil); err != nil {
		return err
	}
	buf.Reset()
	if err := r.finish(&buf, shapes); err != nil {
		return err
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	offset += int64(buf.Len())
	m.resultBytes.Add(int64(buf.Len()))
	j.mu.Lock()
	j.committed = offset
	j.mu.Unlock()
	return nil
}

// runChunk executes one chunk with panic isolation and bounded retry.  The
// buffer is reset per attempt; the runner's aggregate is untouched by a
// failed attempt (see kindRunner), so a retry starts from a clean slate.
func (m *Manager) runChunk(ctx context.Context, j *job, r kindRunner, chunk int, buf *bytes.Buffer, retries *int) (uint64, error) {
	for attempt := 0; ; attempt++ {
		buf.Reset()
		n, err := m.attemptChunk(ctx, j, r, chunk, attempt, buf)
		if err == nil {
			return n, nil
		}
		if ctx.Err() != nil {
			return 0, ctx.Err()
		}
		if attempt >= m.cfg.RetryLimit {
			return 0, fmt.Errorf("jobs: chunk %d failed after %d attempts: %w", chunk, attempt+1, err)
		}
		*retries++
		m.retriesTot.Add(1)
		m.log.Warn("jobs: chunk attempt failed; retrying",
			"job", j.id, "chunk", chunk, "attempt", attempt+1, "err", err)
	}
}

func (m *Manager) attemptChunk(ctx context.Context, j *job, r kindRunner, chunk, attempt int, buf *bytes.Buffer) (n uint64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	cctx, span := obs.Start(ctx, fmt.Sprintf("chunk %d", chunk))
	if span != nil {
		defer span.End()
	}
	if hook := m.cfg.beforeAttempt; hook != nil {
		hook(j.id, chunk, attempt)
	}
	return r.runChunk(cctx, chunk, buf)
}

// writeCheckpoint syncs the result stream and atomically replaces the
// checkpoint file.  Ordering matters: the data covered by offset must be
// durable before a checkpoint referencing it exists.  owners is a
// distributed run's per-chunk ownership snapshot (chunks in flight on peers
// at checkpoint time); nil otherwise.
func (m *Manager) writeCheckpoint(f *os.File, j *job, r kindRunner, next int, offset int64, shapes uint64, retries int, owners map[string]string) error {
	if err := f.Sync(); err != nil {
		return err
	}
	agg, err := r.snapshot()
	if err != nil {
		return err
	}
	ck := checkpoint{
		Version: api.JobSchemaVersion, JobID: j.id,
		NextChunk: next, Offset: offset, Shapes: shapes, Retries: retries, Agg: agg,
		Owners: owners,
	}
	return writeJSONAtomic(filepath.Join(j.dir, checkpointFile), ck)
}

func (m *Manager) persistStatus(j *job) {
	if err := writeJSONAtomic(filepath.Join(j.dir, statusFile), j.status()); err != nil {
		m.log.Error("jobs: persisting status failed", "job", j.id, "err", err)
	}
}

// writeTrace dumps the run's span tree next to the results when tracing is
// active; purely observability, never part of the result stream.
func (m *Manager) writeTrace(j *job, span *obs.Span) {
	if span == nil {
		return
	}
	span.End()
	snap := span.Snapshot()
	snap.TraceID = span.Context().TraceID
	b, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return
	}
	if err := os.WriteFile(filepath.Join(j.dir, traceFile), append(b, '\n'), 0o644); err != nil {
		m.log.Warn("jobs: writing trace failed", "job", j.id, "err", err)
	}
}

func nowUnixMS() int64 { return time.Now().UnixMilli() }
