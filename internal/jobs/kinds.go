package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strconv"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/mesh"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/pkg/api"
)

// Parameter bounds enforced at submission.  They keep a single job inside
// the paper's domain (censuses up to the 512×512×512 coverage sweep) and
// keep checkpoint aggregates small enough to rewrite every few chunks.
const (
	maxCensusN    = 9
	maxEpsilonN   = 9
	maxSweepDims  = 6
	maxSweepAxis  = 512
	maxSweepNodes = 1 << 22
)

// kindRunner is one job kind's execution engine.  The manager drives it
// chunk by chunk: chunks commit sequentially in index order (parallelism
// lives inside a chunk, or across fabric peers), which is what makes the
// record stream and the running aggregate deterministic and therefore
// checkpointable.
//
// Implementations must mutate their running aggregate only after all
// fallible work of the chunk has succeeded, so a panicked or cancelled
// attempt leaves the aggregate exactly as it was and the chunk can be
// retried or resumed without double counting.
type kindRunner interface {
	// chunks returns the fixed number of chunks.
	chunks() int
	// runChunk appends the chunk's NDJSON records to buf and returns the
	// number of shapes it processed.
	runChunk(ctx context.Context, chunk int, buf *bytes.Buffer) (uint64, error)
	// remote runs one chunk on a FRESH runner (fabric worker side) and
	// returns it in portable form: the chunk's NDJSON rows plus the
	// aggregate delta of just this chunk (a fresh runner's post-chunk
	// snapshot IS the delta), or position-independent plan entries for
	// plancensus.
	remote(ctx context.Context, chunk int) (*api.ChunkResult, error)
	// fold merges one shipped chunk into the runner (coordinator side),
	// appending the chunk's stream bytes to buf and returning its shape
	// count — the distributed counterpart of runChunk, called strictly in
	// chunk-index order under the same validate-before-mutate contract.
	fold(res *api.ChunkResult, buf *bytes.Buffer) (uint64, error)
	// finish appends the final records (cumulative rows, summary) after the
	// last chunk; shapes is the job-wide shape count.
	finish(buf *bytes.Buffer, shapes uint64) error
	// snapshot and restore round-trip the running aggregate through a
	// checkpoint.  snapshot may return nil for stateless kinds.
	snapshot() (json.RawMessage, error)
	restore(agg json.RawMessage) error
}

// runnerCloser is implemented by runners holding resources (the plancensus
// artifact builder); the manager closes them when a run stops for any
// reason other than a clean finish.
type runnerCloser interface {
	close()
}

// buildRunner validates a submission and constructs its runner.  Validation
// failures wrap ErrBadRequest so the API layer can map them to 400s.  dir
// is the job's data directory — empty at submission time, when buildRunner
// runs for validation only, so runners must touch it lazily.
func buildRunner(req *api.JobSubmitRequest, workers int, planner *core.Planner, dir string) (kindRunner, error) {
	switch req.Kind {
	case api.JobCensus:
		p := req.Census
		if p == nil {
			return nil, fmt.Errorf("%w: kind %q requires the census parameter block", ErrBadRequest, req.Kind)
		}
		if p.MaxN < 1 || p.MaxN > maxCensusN {
			return nil, fmt.Errorf("%w: census max_n must be 1..%d, got %d", ErrBadRequest, maxCensusN, p.MaxN)
		}
		return &censusRunner{maxN: p.MaxN, workers: workers}, nil
	case api.JobEpsilon:
		p := req.Epsilon
		if p == nil {
			return nil, fmt.Errorf("%w: kind %q requires the epsilon parameter block", ErrBadRequest, req.Kind)
		}
		if p.MaxN < 1 || p.MaxN > maxEpsilonN {
			return nil, fmt.Errorf("%w: epsilon max_n must be 1..%d, got %d", ErrBadRequest, maxEpsilonN, p.MaxN)
		}
		return &epsilonRunner{maxN: p.MaxN, workers: workers}, nil
	case api.JobPlanSweep:
		p := req.PlanSweep
		if p == nil {
			return nil, fmt.Errorf("%w: kind %q requires the plansweep parameter block", ErrBadRequest, req.Kind)
		}
		if p.Dims < 1 || p.Dims > maxSweepDims {
			return nil, fmt.Errorf("%w: plansweep dims must be 1..%d, got %d", ErrBadRequest, maxSweepDims, p.Dims)
		}
		if p.MaxAxis < 1 || p.MaxAxis > maxSweepAxis {
			return nil, fmt.Errorf("%w: plansweep max_axis must be 1..%d, got %d", ErrBadRequest, maxSweepAxis, p.MaxAxis)
		}
		if p.MaxNodes < 1 || p.MaxNodes > maxSweepNodes {
			return nil, fmt.Errorf("%w: plansweep max_nodes must be 1..%d, got %d", ErrBadRequest, maxSweepNodes, p.MaxNodes)
		}
		fam, err := guest.ByName(p.Family)
		if err != nil {
			return nil, fmt.Errorf("%w: plansweep %v", ErrBadRequest, err)
		}
		return &plansweepRunner{
			params:  *p,
			family:  fam.Family,
			workers: workers,
			planner: planner,
			hist:    map[string]uint64{},
		}, nil
	case api.JobPlanCensus:
		p := req.PlanCensus
		if p == nil {
			return nil, fmt.Errorf("%w: kind %q requires the plancensus parameter block", ErrBadRequest, req.Kind)
		}
		if p.Dims < 1 || p.Dims > maxSweepDims {
			return nil, fmt.Errorf("%w: plancensus dims must be 1..%d, got %d", ErrBadRequest, maxSweepDims, p.Dims)
		}
		if p.MaxAxis < 1 || p.MaxAxis > maxSweepAxis {
			return nil, fmt.Errorf("%w: plancensus max_axis must be 1..%d, got %d", ErrBadRequest, maxSweepAxis, p.MaxAxis)
		}
		if total := artifact.TotalRecords(p.Dims, p.MaxAxis); total > artifact.MaxRecords {
			return nil, fmt.Errorf("%w: plancensus dims=%d max_axis=%d spans %d records (cap %d)",
				ErrBadRequest, p.Dims, p.MaxAxis, total, artifact.MaxRecords)
		}
		fam, err := guest.ByName(p.Family)
		if err != nil {
			return nil, fmt.Errorf("%w: plancensus %v", ErrBadRequest, err)
		}
		if fam.Family != guest.Mesh && fam.Family != guest.Torus {
			return nil, fmt.Errorf("%w: plancensus covers the rank-indexable families mesh and torus, not %q",
				ErrBadRequest, fam.Family)
		}
		return &plancensusRunner{
			params:  *p,
			family:  fam.Family,
			planner: planner,
			dir:     dir,
			hist:    map[string]uint64{},
		}, nil
	default:
		return nil, fmt.Errorf("%w: unknown job kind %q", ErrBadRequest, req.Kind)
	}
}

// writeRecord appends one NDJSON line.
func writeRecord(buf *bytes.Buffer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	buf.Write(b)
	buf.WriteByte('\n')
	return nil
}

// censusRunner runs the Figure 2 coverage census.  One chunk per first axis
// a = 1..2^maxN; the aggregate is the per-bucket integer tally the
// cumulative rows are rendered from.
type censusRunner struct {
	maxN    int
	workers int
	agg     []stats.CensusTally
}

func (r *censusRunner) chunks() int { return 1 << uint(r.maxN) }

func (r *censusRunner) runChunk(ctx context.Context, chunk int, buf *bytes.Buffer) (uint64, error) {
	a := chunk + 1
	part, err := stats.CensusShard(ctx, a, r.maxN, r.workers)
	if err != nil {
		return 0, err
	}
	rec := api.CensusShardRecord{Type: api.RecordCensusShard, A: a}
	var shapes uint64
	for n, t := range part {
		if t.Total == 0 {
			continue
		}
		rec.Buckets = append(rec.Buckets, api.CensusBucket{N: n, Count: t.Count, Eps2: t.Eps2, Total: t.Total})
		shapes += t.Total
	}
	if err := writeRecord(buf, rec); err != nil {
		return 0, err
	}
	r.agg = stats.MergeCensusTallies(r.agg, part)
	return shapes, nil
}

func (r *censusRunner) finish(buf *bytes.Buffer, shapes uint64) error {
	rows := stats.CensusRows(r.maxN, r.agg)
	for _, row := range rows {
		rec := api.CensusRowRecord{
			Type: api.RecordCensusRow, N: row.N, S: row.S, S4Eps2: row.S4Eps2,
			Total: row.Total, Exceptions: row.Exceptions,
			// The method-1 stratum is exactly the Gray-minimal shapes,
			// whose plans achieve dilation 1 — the unconditional floor —
			// so S[0] is the certified-dilation-optimal percentage.
			CertOptimalPct: row.S[0],
		}
		if err := writeRecord(buf, rec); err != nil {
			return err
		}
	}
	return writeRecord(buf, api.SummaryRecord{
		Type: api.RecordSummary, Schema: api.JobSchemaVersion, Kind: api.JobCensus,
		Chunks: r.chunks(), Shapes: shapes, Exceptions: rows[len(rows)-1].Exceptions,
	})
}

func (r *censusRunner) snapshot() (json.RawMessage, error) { return json.Marshal(r.agg) }

func (r *censusRunner) restore(agg json.RawMessage) error {
	var t []stats.CensusTally
	if err := json.Unmarshal(agg, &t); err != nil {
		return err
	}
	if len(t) != r.maxN+1 {
		return fmt.Errorf("jobs: census checkpoint has %d buckets, want %d", len(t), r.maxN+1)
	}
	r.agg = t
	return nil
}

// epsilonRunner runs the ε-distribution table, one chunk (and one record)
// per domain exponent.  Rows are independent, so there is no aggregate.
type epsilonRunner struct {
	maxN    int
	workers int
}

func (r *epsilonRunner) chunks() int { return r.maxN }

func (r *epsilonRunner) runChunk(ctx context.Context, chunk int, buf *bytes.Buffer) (uint64, error) {
	n := chunk + 1
	d, err := stats.Figure2EpsilonCtx(ctx, n, r.workers)
	if err != nil {
		return 0, err
	}
	rec := api.EpsilonRowRecord{
		Type: api.RecordEpsilonRow, N: n,
		Eps1: d.Eps1, Eps2: d.Eps2, Eps4: d.Eps4, EpsWorse: d.EpsWorse,
	}
	if err := writeRecord(buf, rec); err != nil {
		return 0, err
	}
	return uint64(1) << uint(3*n), nil // ordered triples in the 2^n domain
}

func (r *epsilonRunner) finish(buf *bytes.Buffer, shapes uint64) error {
	return writeRecord(buf, api.SummaryRecord{
		Type: api.RecordSummary, Schema: api.JobSchemaVersion, Kind: api.JobEpsilon,
		Chunks: r.maxN, Shapes: shapes,
	})
}

func (r *epsilonRunner) snapshot() (json.RawMessage, error) { return nil, nil }
func (r *epsilonRunner) restore(json.RawMessage) error      { return nil }

// plansweepRunner plans every canonical guest shape of the family in range,
// one chunk per first axis (core.FamilyShapesFrom), one record per shape in
// enumeration order.  The aggregate is the dilation histogram and
// minimal-cube count of the summary line.
type plansweepRunner struct {
	params  api.PlanSweepParams
	family  guest.Family
	workers int
	planner *core.Planner
	hist    map[string]uint64
	minimal uint64
	optimal uint64
}

func (r *plansweepRunner) chunks() int { return r.params.MaxAxis }

func (r *plansweepRunner) runChunk(ctx context.Context, chunk int, buf *bytes.Buffer) (uint64, error) {
	p := r.params
	shapes := core.FamilyShapesFrom(r.family, chunk+1, p.Dims, p.MaxAxis, p.MaxNodes)
	if len(shapes) == 0 {
		return 0, nil
	}
	recs, err := sweep.FoldCtx(ctx, len(shapes), r.workers,
		func(i int) api.PlanRecord { return r.planRecord(shapes[i]) },
		make([]api.PlanRecord, 0, len(shapes)),
		func(acc []api.PlanRecord, rec api.PlanRecord) []api.PlanRecord { return append(acc, rec) })
	if err != nil {
		return 0, err
	}
	for _, rec := range recs {
		if err := writeRecord(buf, rec); err != nil {
			return 0, err
		}
	}
	for _, rec := range recs {
		key := "unknown"
		if rec.DilationBound >= 0 {
			key = strconv.Itoa(rec.DilationBound)
		}
		r.hist[key]++
		if rec.Minimal {
			r.minimal++
		}
		if rec.Optimal {
			r.optimal++
		}
	}
	return uint64(len(shapes)), nil
}

func (r *plansweepRunner) planRecord(s mesh.Shape) api.PlanRecord {
	p := r.planner.PlanGuest(r.family, s)
	dil := p.Dilation
	if dil == core.DilationUnknown {
		dil = -1
	}
	fam := ""
	if r.family != guest.Mesh {
		fam = r.family.String()
	}
	rec := api.PlanRecord{
		Type: api.RecordPlan, Shape: s.String(), Family: fam, Nodes: s.Nodes(),
		CubeDim: p.CubeDim, Plan: p.String(), Method: p.Method,
		DilationBound: dil, Minimal: p.Minimal(),
	}
	if r.family == guest.Mesh && len(s) == 3 {
		rec.BestMethod = stats.BestMethod(s[0], s[1], s[2])
		e := stats.RelExpansion(s[0], s[1], s[2])
		rec.RelExpansion = e[:]
	}
	b, gap, opt := core.PlanCertificate(r.family, s, p)
	rec.LowerBounds = &api.LowerBounds{Dilation: b.Dilation, Wirelength: b.Wirelength, Congestion: b.Congestion}
	rec.GapToOptimal = gap
	rec.Optimal = opt
	return rec
}

func (r *plansweepRunner) finish(buf *bytes.Buffer, shapes uint64) error {
	rec := api.SummaryRecord{
		Type: api.RecordSummary, Schema: api.JobSchemaVersion, Kind: api.JobPlanSweep,
		Chunks: r.chunks(), Shapes: shapes, Minimal: r.minimal, Optimal: r.optimal,
	}
	if len(r.hist) > 0 {
		rec.DilationHist = r.hist
	}
	return writeRecord(buf, rec)
}

type plansweepAgg struct {
	Hist    map[string]uint64 `json:"hist"`
	Minimal uint64            `json:"minimal"`
	Optimal uint64            `json:"optimal"`
}

func (r *plansweepRunner) snapshot() (json.RawMessage, error) {
	return json.Marshal(plansweepAgg{Hist: r.hist, Minimal: r.minimal, Optimal: r.optimal})
}

func (r *plansweepRunner) restore(agg json.RawMessage) error {
	var a plansweepAgg
	if err := json.Unmarshal(agg, &a); err != nil {
		return err
	}
	if a.Hist == nil {
		a.Hist = map[string]uint64{}
	}
	r.hist, r.minimal, r.optimal = a.Hist, a.Minimal, a.Optimal
	return nil
}

// ArtifactFile is the plancensus artifact's file name inside the job
// directory.
const ArtifactFile = "artifact.plan"

// plancensusRunner sweeps every canonical shape of the family in rank
// order and writes the plan-census artifact, one chunk per largest-axis
// value (artifact.ChunkRange makes those rank-contiguous, so the builder is
// append-only).  The NDJSON stream carries one line per chunk plus the
// summary — the artifact file itself is the payload, downloaded via
// GET /v1/jobs/{id}/artifact.
//
// The aggregate is the builder position (nextRank, stringCursor) plus the
// dilation histogram; on restore (or an intra-chunk retry) the builder is
// reopened at exactly the checkpointed position, truncating whatever a torn
// chunk wrote past it, which keeps both the artifact bytes and the record
// stream byte-identical to an uninterrupted run.
type plancensusRunner struct {
	params  api.PlanCensusParams
	family  guest.Family
	planner *core.Planner
	dir     string

	b        *artifact.Builder
	nextRank uint64
	cursor   uint64
	hist     map[string]uint64
	minimal  uint64
}

func (r *plancensusRunner) chunks() int { return r.params.MaxAxis }

func (r *plancensusRunner) path() string { return filepath.Join(r.dir, ArtifactFile) }

// ensureBuilder (re)opens the builder at the checkpointed position.  A
// builder whose position drifted from the aggregate (a failed chunk
// attempt) is discarded and reopened so the retry replays cleanly.
func (r *plancensusRunner) ensureBuilder() error {
	if r.b != nil {
		if next, cur := r.b.Pos(); next == r.nextRank && cur == r.cursor {
			return nil
		}
		r.b.Abort()
		r.b = nil
	}
	b, err := artifact.OpenBuilderAt(r.path(), r.family.String(), r.params.Dims, r.params.MaxAxis,
		r.planner.Fingerprint(), r.nextRank, r.cursor)
	if err != nil {
		return err
	}
	r.b = b
	return nil
}

func (r *plancensusRunner) runChunk(ctx context.Context, chunk int, buf *bytes.Buffer) (uint64, error) {
	if err := r.ensureBuilder(); err != nil {
		return 0, err
	}
	c := chunk + 1
	lo, hi := artifact.ChunkRange(r.params.Dims, c)
	hist := map[string]uint64{}
	var minimal uint64
	var addErr error
	artifact.EachShapeWithMax(r.params.Dims, c, func(s mesh.Shape) {
		if addErr != nil {
			return
		}
		if err := ctx.Err(); err != nil {
			addErr = err
			return
		}
		p := r.planner.PlanGuest(r.family, s)
		if err := r.b.Add(s, p); err != nil {
			addErr = err
			return
		}
		if p.Dilation == core.DilationUnknown {
			hist["unknown"]++
		} else {
			hist[strconv.Itoa(p.Dilation)]++
		}
		if p.Minimal() {
			minimal++
		}
	})
	if addErr != nil {
		return 0, addErr
	}
	if err := r.b.Flush(); err != nil {
		return 0, err
	}
	next, cursor := r.b.Pos()
	if next != hi {
		return 0, fmt.Errorf("jobs: plancensus chunk %d wrote to rank %d, want %d", c, next, hi)
	}
	if err := writeRecord(buf, api.PlanCensusChunkRecord{
		Type: api.RecordPlanCensusChunk, MaxAxisValue: c,
		Records: hi - lo, RankLo: lo, RankHi: hi, StringBytes: cursor,
	}); err != nil {
		return 0, err
	}
	r.nextRank, r.cursor = next, cursor
	for k, v := range hist {
		r.hist[k] += v
	}
	r.minimal += minimal
	return hi - lo, nil
}

func (r *plancensusRunner) finish(buf *bytes.Buffer, shapes uint64) error {
	// Resuming directly into finish (killed between the last chunk and the
	// summary) arrives with no open builder; reopen at the full position.
	if err := r.ensureBuilder(); err != nil {
		return err
	}
	hdr, err := r.b.Finalize()
	r.b = nil
	if err != nil {
		return err
	}
	return writeRecord(buf, api.SummaryRecord{
		Type: api.RecordSummary, Schema: api.JobSchemaVersion, Kind: api.JobPlanCensus,
		Chunks: r.chunks(), Shapes: shapes,
		Minimal: r.minimal, DilationHist: r.hist,
		Artifact: &api.ArtifactInfo{
			Records:     hdr.RecordCount,
			StringBytes: hdr.StringBytes,
			Bytes:       artifact.HeaderSize + hdr.RecordCount*artifact.RecordSize + hdr.StringBytes,
			CRC32:       fmt.Sprintf("%08x", hdr.CRC),
			Fingerprint: r.planner.Fingerprint(),
		},
	})
}

type plancensusAgg struct {
	NextRank uint64            `json:"next_rank"`
	Cursor   uint64            `json:"cursor"`
	Hist     map[string]uint64 `json:"hist"`
	Minimal  uint64            `json:"minimal"`
}

func (r *plancensusRunner) snapshot() (json.RawMessage, error) {
	return json.Marshal(plancensusAgg{NextRank: r.nextRank, Cursor: r.cursor, Hist: r.hist, Minimal: r.minimal})
}

func (r *plancensusRunner) restore(agg json.RawMessage) error {
	var a plancensusAgg
	if err := json.Unmarshal(agg, &a); err != nil {
		return err
	}
	if a.Hist == nil {
		a.Hist = map[string]uint64{}
	}
	r.nextRank, r.cursor, r.hist, r.minimal = a.NextRank, a.Cursor, a.Hist, a.Minimal
	return nil
}

// close releases the builder when a run stops without finishing (shutdown,
// cancel, failure); the provisional header keeps the torn file invalid.
func (r *plancensusRunner) close() {
	if r.b != nil {
		r.b.Abort()
		r.b = nil
	}
}
