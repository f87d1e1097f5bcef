package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/guest"
	"repro/internal/mesh"
	"repro/internal/stats"
	"repro/pkg/api"
)

// planRef is the reference planner's answer for one shape.
type planRef struct {
	plan             string
	method, cubeDim  int
	dilBound         int // -1: no a-priori bound
	classified       bool
	kernelNs         float64 // classify, plan, build, verify and measure time
	measureNs, edges float64
}

// checker holds the in-process reference for every generated request and
// checks the server's responses against it.  References come from the
// public library functions on a fresh planner; in a traced run every call
// into a layer is a span.
type checker struct {
	planner  *core.Planner
	tr       *tracer
	plans    map[string]*planRef         // family|requested shape
	embeds   map[string]*planRef         // family|canonical shape
	metrics  map[string]api.Metrics      // family|canonical shape
	compares map[string][]api.CompareRow // family|canonical shape
	// measureAllocs holds the heap allocations of each traced Measure call.
	measureAllocs []float64
	// classified and planCalls count the classifier's hits over the plan
	// references computed.
	classified, planCalls float64
	failures              []string
}

func newChecker(tr *tracer) *checker {
	return &checker{
		planner:  core.NewPlanner(core.DefaultOptions),
		tr:       tr,
		plans:    map[string]*planRef{},
		embeds:   map[string]*planRef{},
		metrics:  map[string]api.Metrics{},
		compares: map[string][]api.CompareRow{},
	}
}

// fail records one mismatch.
func (c *checker) fail(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

func parseReq(r Request) (guest.Family, mesh.Shape, mesh.Shape, error) {
	d, err := guest.ByName(r.Family)
	if err != nil {
		return 0, nil, nil, err
	}
	sh, err := mesh.ParseShape(r.Shape)
	if err != nil {
		return 0, nil, nil, err
	}
	canon, _ := d.Canonical(sh)
	return d.Family, sh, canon, nil
}

// timed runs fn under a span and returns its duration in nanoseconds.
func (c *checker) timed(name string, parent, req int, fn func()) float64 {
	id := c.tr.start(name, parent, req)
	t := time.Now()
	fn()
	d := float64(time.Since(t).Nanoseconds())
	c.tr.end(id)
	return d
}

// planOf plans (fam, sh) the way the server does — closed-form classifier
// first, then the planner — and also asks the planner, whose answer is the
// reference.
func (c *checker) planOf(fam guest.Family, sh mesh.Shape, parent, req int) (*core.Plan, *planRef, error) {
	ref := &planRef{}
	var cp *core.Plan
	ref.kernelNs += c.timed("core.classify", parent, req, func() { cp, ref.classified = core.ClassifyGuest(fam, sh) })
	var p *core.Plan
	var err error
	d := c.timed("core.plan", parent, req, func() { p, err = c.planner.TryPlanGuest(fam, sh) })
	if err != nil {
		return nil, nil, err
	}
	c.planCalls++
	switch {
	case !ref.classified:
		ref.kernelNs += d
	case cp.String() != p.String():
		return nil, nil, fmt.Errorf("%s %s: classifier plan %s differs from planner plan %s", fam, sh, cp, p)
	default:
		c.classified++
	}
	ref.plan, ref.method, ref.cubeDim = p.String(), p.Method, p.CubeDim
	ref.dilBound = p.Dilation
	if p.Dilation == core.DilationUnknown {
		ref.dilBound = -1
	}
	return p, ref, nil
}

// measure measures e under a span, recording allocations in traced runs.
func (c *checker) measure(e *embed.Embedding, parent, req int) (embed.Metrics, float64) {
	var m embed.Metrics
	var before, after runtime.MemStats
	if c.tr != nil {
		runtime.ReadMemStats(&before)
	}
	d := c.timed("embed.measure", parent, req, func() { m = e.Measure() })
	if c.tr != nil {
		runtime.ReadMemStats(&after)
		c.measureAllocs = append(c.measureAllocs, float64(after.Mallocs-before.Mallocs))
	}
	return m, d
}

// prepare computes the reference of every request not seen before.  req
// numbers the spans of each request.
func (c *checker) prepare(reqs []Request, firstID int) error {
	for i, r := range reqs {
		if err := c.prepareOne(r, firstID+i); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) prepareOne(r Request, req int) error {
	fam, sh, canon, err := parseReq(r)
	if err != nil {
		return err
	}
	ckey := r.Family + "|" + canon.String()
	switch r.Kind {
	case "plan":
		key := r.Family + "|" + r.Shape
		if c.plans[key] != nil {
			return nil
		}
		root := c.tr.start("kernel.plan", 0, req)
		_, ref, err := c.planOf(fam, sh, root, req)
		c.tr.end(root)
		if err != nil {
			return err
		}
		c.plans[key] = ref
	case "embed":
		if c.embeds[ckey] != nil {
			return nil
		}
		root := c.tr.start("kernel.embed", 0, req)
		defer c.tr.end(root)
		p, ref, err := c.planOf(fam, canon, root, req)
		if err != nil {
			return err
		}
		var e *embed.Embedding
		ref.kernelNs += c.timed("core.build", root, req, func() { e = p.Build() })
		var verr error
		ref.kernelNs += c.timed("embed.verify", root, req, func() { verr = e.Verify() })
		if verr != nil {
			return fmt.Errorf("reference build of %s %s is invalid: %w", fam, canon, verr)
		}
		m, d := c.measure(e, root, req)
		ref.kernelNs += d
		ref.measureNs, ref.edges = d, float64(e.NumGuestEdges())
		c.embeds[ckey], c.metrics[ckey] = ref, api.Metrics(m)
	case "compare":
		if c.compares[ckey] != nil {
			return nil
		}
		root := c.tr.start("kernel.compare", 0, req)
		defer c.tr.end(root)
		p, ref, err := c.planOf(fam, canon, root, req)
		if err != nil {
			return err
		}
		es := map[string]*embed.Embedding{}
		ref.kernelNs += c.timed("core.build", root, req, func() {
			gr := embed.Gray(canon)
			gr.Family = fam
			sn := core.Snake(canon)
			sn.Family = fam
			es["gray"], es["snake"], es["decomposition"] = gr, sn, p.Build()
		})
		var rows []api.CompareRow
		for _, name := range []string{"decomposition", "gray", "snake"} {
			m, d := c.measure(es[name], root, req)
			ref.kernelNs += d
			rows = append(rows, api.CompareRow{Technique: name, Metrics: api.Metrics(m)})
		}
		c.embeds["compare|"+ckey], c.compares[ckey] = ref, rows
	default:
		return fmt.Errorf("unknown request kind %q", r.Kind)
	}
	return nil
}

// kernelNs is the library time the server spends computing r when it
// misses every cache: the reference's own kernel time.
func (c *checker) kernelNs(r Request) float64 {
	_, _, canon, _ := parseReq(r)
	ckey := r.Family + "|" + canon.String()
	switch r.Kind {
	case "plan":
		return c.plans[r.Family+"|"+r.Shape].kernelNs
	case "embed":
		return c.embeds[ckey].kernelNs
	default:
		return c.embeds["compare|"+ckey].kernelNs
	}
}

// checkResponse checks one response against the reference; resp is the
// decoded *api.PlanResponse, *api.EmbedResponse or *api.CompareResponse.
// sources lists the source values the workload allows for the request.
func (c *checker) checkResponse(r Request, resp any, sources []string, req int) {
	fam, sh, canon, err := parseReq(r)
	if err != nil {
		c.fail("%s %s %s: %v", r.Kind, r.Family, r.Shape, err)
		return
	}
	ckey := r.Family + "|" + canon.String()
	where := fmt.Sprintf("%s %s %s", r.Kind, r.Family, r.Shape)
	var source string
	switch v := resp.(type) {
	case *api.PlanResponse:
		source = v.Source
		ref := c.plans[r.Family+"|"+r.Shape]
		if v.Shape != r.Shape || v.Family != r.Family || v.Nodes != sh.Nodes() {
			c.fail("%s: echoed %s %s with %d nodes", where, v.Family, v.Shape, v.Nodes)
		}
		if v.Plan != ref.plan || v.Method != ref.method || v.CubeDim != ref.cubeDim || v.DilationBound != ref.dilBound {
			c.fail("%s: plan %q method %d cube %d dilation bound %d, reference %q %d %d %d",
				where, v.Plan, v.Method, v.CubeDim, v.DilationBound, ref.plan, ref.method, ref.cubeDim, ref.dilBound)
		}
		c.checkCert(where, v.Certificate, fam, sh, v.CubeDim, certAchieved{dil: v.DilationBound, planOnly: true}, req)
	case *api.EmbedResponse:
		source = v.Source
		ref := c.embeds[ckey]
		want := c.metrics[ckey]
		want.Guest = r.Shape
		if v.Metrics != want {
			c.fail("%s: metrics %+v, reference %+v", where, v.Metrics, want)
		}
		if v.Shape != r.Shape || v.Family != r.Family || v.Mode != "decomposition" {
			c.fail("%s: echoed %s %s mode %s", where, v.Family, v.Shape, v.Mode)
		}
		if v.Plan != ref.plan || v.Method != ref.method || v.DilationBound != ref.dilBound {
			c.fail("%s: plan %q method %d dilation bound %d, reference %q %d %d",
				where, v.Plan, v.Method, v.DilationBound, ref.plan, ref.method, ref.dilBound)
		}
		m := v.Metrics
		c.checkCert(where, v.Certificate, fam, sh, m.CubeDim, certAchieved{dil: m.Dilation, wl: m.Wirelength, cong: m.Congestion}, req)
	case *api.CompareResponse:
		source = v.Source
		if v.Shape != r.Shape || v.Family != r.Family {
			c.fail("%s: echoed %s %s", where, v.Family, v.Shape)
		}
		if !slices.Equal(v.Rows, c.compares[ckey]) {
			c.fail("%s: rows %+v, reference %+v", where, v.Rows, c.compares[ckey])
		}
		best, ok := bestMinimal(sh.MinCubeDim(), c.compares[ckey])
		if !ok {
			c.fail("%s: no technique reaches the minimal cube", where)
			break
		}
		c.checkCert(where, v.Certificate, fam, sh, sh.MinCubeDim(), best, req)
	default:
		c.fail("%s: unexpected response type %T", where, resp)
		return
	}
	if !slices.Contains(sources, source) {
		c.fail("%s: source %q, want one of %v", where, source, sources)
	}
}

// certAchieved is what a certificate is measured against: the achieved
// dilation, wirelength and congestion, or for a plan only its a-priori
// dilation bound (-1: none).
type certAchieved struct {
	dil      int
	wl       int64
	cong     int
	planOnly bool
}

func bestMinimal(cube int, rows []api.CompareRow) (certAchieved, bool) {
	var best certAchieved
	found := false
	for _, row := range rows {
		m := row.Metrics
		if m.CubeDim != cube {
			continue
		}
		if !found {
			best, found = certAchieved{dil: m.Dilation, wl: m.Wirelength, cong: m.Congestion}, true
			continue
		}
		best.dil, best.wl, best.cong = min(best.dil, m.Dilation), min(best.wl, m.Wirelength), min(best.cong, m.Congestion)
	}
	return best, found
}

// checkCert checks a certificate against the floors of internal/bounds:
// the floors match, every known gap is achieved − floor and never
// negative (measured ≥ floor), unknown gaps are -1, and optimal is claimed
// exactly when every known gap is zero.
func (c *checker) checkCert(where string, cert *api.Certificate, fam guest.Family, sh mesh.Shape, cube int, a certAchieved, req int) {
	if cert == nil {
		c.fail("%s: no certificate", where)
		return
	}
	var b bounds.Bounds
	c.timed("bounds.for", 0, req, func() { b = bounds.For(fam, sh, cube) })
	if cert.CubeDim != cube || cert.LowerBounds != (api.LowerBounds{Dilation: b.Dilation, Wirelength: b.Wirelength, Congestion: b.Congestion}) {
		c.fail("%s: certificate cube %d floors %+v, want cube %d floors %+v", where, cert.CubeDim, cert.LowerBounds, cube, b)
	}
	gaps := []int64{int64(cert.DilationGap), cert.WirelengthGap, int64(cert.CongestionGap)}
	want := []int64{int64(a.dil - b.Dilation), a.wl - b.Wirelength, int64(a.cong - b.Congestion)}
	known := []bool{true, true, true}
	switch {
	case a.planOnly && b.Dilation == 0: // edgeless guest: trivially optimal
		want = []int64{0, 0, 0}
	case a.planOnly:
		known = []bool{a.dil >= 0, false, false}
	}
	var sum int64
	anyKnown, allZero := false, true
	for i := range gaps {
		if !known[i] {
			want[i] = -1
		} else {
			if gaps[i] < 0 {
				c.fail("%s: certificate gap %d is %d: measured below the certified floor", where, i, gaps[i])
			}
			anyKnown = true
			allZero = allZero && gaps[i] == 0
			sum += gaps[i]
		}
		if gaps[i] != want[i] {
			c.fail("%s: certificate gap %d is %d, want %d", where, i, gaps[i], want[i])
		}
	}
	if !anyKnown {
		sum = -1
	}
	if cert.GapToOptimal != sum {
		c.fail("%s: gap_to_optimal %d, want %d", where, cert.GapToOptimal, sum)
	}
	if cert.Optimal != (anyKnown && allZero) {
		c.fail("%s: optimal %v with gaps %v", where, cert.Optimal, gaps)
	}
}

// figure2Golden is the paper's Figure 2 (cumulative % of 3-D meshes with
// axes in 1..2^n at relative expansion 1 after methods ≤ 1..4, then ε ≤ 2),
// to the printed 0.1 %.  The n = 9 row is the paper's headline sequence.
var figure2Golden = [][5]float64{
	{100.0, 100.0, 100.0, 100.0, 100.0},
	{98.4, 98.4, 100.0, 100.0, 100.0},
	{77.1, 95.3, 99.2, 99.2, 100.0},
	{59.9, 91.4, 96.0, 96.5, 100.0},
	{46.1, 88.7, 92.0, 94.2, 100.0},
	{37.8, 85.6, 88.1, 93.2, 100.0},
	{32.9, 83.7, 85.6, 93.9, 100.0},
	{30.1, 82.3, 83.9, 94.9, 100.0},
	{28.5, 81.5, 82.9, 96.1, 100.0},
}

// records splits an NDJSON result stream into its lines, keyed by type.
func records(body []byte) ([]string, [][]byte, error) {
	var types []string
	var lines [][]byte
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var head struct {
			Type string `json:"type"`
		}
		line := slices.Clone(sc.Bytes())
		if err := json.Unmarshal(line, &head); err != nil {
			return nil, nil, fmt.Errorf("bad result line %q: %w", line, err)
		}
		types, lines = append(types, head.Type), append(lines, line)
	}
	return types, lines, sc.Err()
}

// checkCensus checks a census result stream: every cumulative row equals
// the in-process census (ref, from stats.Figure2Parallel) exactly and the
// Figure 2 golden values to the printed precision.
func (c *checker) checkCensus(body []byte, maxN int, ref []stats.Figure2Row) {
	types, lines, err := records(body)
	if err != nil {
		c.fail("census: %v", err)
		return
	}
	var rows []api.CensusRowRecord
	var sum api.SummaryRecord
	for i, t := range types {
		switch t {
		case api.RecordCensusRow:
			var row api.CensusRowRecord
			if err := json.Unmarshal(lines[i], &row); err != nil {
				c.fail("census row: %v", err)
				return
			}
			rows = append(rows, row)
		case api.RecordSummary:
			if err := json.Unmarshal(lines[i], &sum); err != nil {
				c.fail("census summary: %v", err)
				return
			}
		}
	}
	if len(rows) != maxN || len(ref) != maxN {
		c.fail("census: %d rows, want %d", len(rows), maxN)
		return
	}
	for i, row := range rows {
		w := ref[i]
		if row.N != w.N || row.S != w.S || row.S4Eps2 != w.S4Eps2 || row.Total != w.Total ||
			row.Exceptions != w.Exceptions || row.CertOptimalPct != w.S[0] {
			c.fail("census row n=%d: %+v, reference %+v", row.N, row, w)
		}
		if row.N >= 1 && row.N <= len(figure2Golden) {
			g := figure2Golden[row.N-1]
			got := [5]float64{row.S[0], row.S[1], row.S[2], row.S[3], row.S4Eps2}
			for j := range g {
				if math.Round(got[j]*10)/10 != g[j] {
					c.fail("census row n=%d column %d: %.4f%%, Figure 2 gives %.1f%%", row.N, j, got[j], g[j])
				}
			}
		}
	}
	if want := uint64(1) << uint(3*maxN); sum.Shapes != want || sum.Exceptions != rows[maxN-1].Exceptions {
		c.fail("census summary: %+v, want %d shapes and %d exceptions", sum, want, rows[maxN-1].Exceptions)
	}
}

// checkPlanSweep checks that every plansweep row equals the reference
// planner's result for its shape, in enumeration order.
func (c *checker) checkPlanSweep(body []byte, p api.PlanSweepParams) {
	d, err := guest.ByName(p.Family)
	if err != nil {
		c.fail("plansweep: %v", err)
		return
	}
	fam := d.Family
	var shapes []mesh.Shape
	for a := 1; a <= p.MaxAxis; a++ {
		shapes = append(shapes, core.FamilyShapesFrom(fam, a, p.Dims, p.MaxAxis, p.MaxNodes)...)
	}
	types, lines, err := records(body)
	if err != nil {
		c.fail("plansweep: %v", err)
		return
	}
	n := 0
	for i, t := range types {
		if t != api.RecordPlan {
			continue
		}
		var rec api.PlanRecord
		if err := json.Unmarshal(lines[i], &rec); err != nil {
			c.fail("plansweep row: %v", err)
			return
		}
		if n >= len(shapes) {
			c.fail("plansweep %s: more rows than the %d shapes in range", p.Family, len(shapes))
			return
		}
		sh := shapes[n]
		n++
		root := c.tr.start("kernel.plan", 0, n)
		pl, ref, err := c.planOf(fam, sh, root, n)
		var b bounds.Bounds
		var gap int
		var opt bool
		c.timed("bounds.for", root, n, func() { b, gap, opt = core.PlanCertificate(fam, sh, pl) })
		c.tr.end(root)
		if err != nil {
			c.fail("plansweep %s: %v", sh, err)
			continue
		}
		wantFam := ""
		if fam != guest.Mesh {
			wantFam = fam.String()
		}
		lb := api.LowerBounds{Dilation: b.Dilation, Wirelength: b.Wirelength, Congestion: b.Congestion}
		if rec.Shape != sh.String() || rec.Family != wantFam || rec.Nodes != sh.Nodes() || rec.Plan != ref.plan ||
			rec.Method != ref.method || rec.CubeDim != ref.cubeDim || rec.DilationBound != ref.dilBound ||
			rec.Minimal != pl.Minimal() || rec.LowerBounds == nil || *rec.LowerBounds != lb ||
			rec.GapToOptimal != gap || rec.Optimal != opt {
			c.fail("plansweep row %s: %s, reference plan %q method %d cube %d dilation bound %d floors %+v gap %d optimal %v",
				sh, lines[i], ref.plan, ref.method, ref.cubeDim, ref.dilBound, lb, gap, opt)
		}
	}
	if n != len(shapes) {
		c.fail("plansweep %s: %d rows, want %d", p.Family, n, len(shapes))
	}
}

// checkIdentical checks that a job's local and distributed result streams
// are byte-identical.
func (c *checker) checkIdentical(name string, local, dist []byte) {
	if !bytes.Equal(local, dist) {
		c.fail("%s: local and distributed results differ (%d vs %d bytes)", name, len(local), len(dist))
	}
}
