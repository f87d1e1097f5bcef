package main

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/guest"
	"repro/internal/mesh"
	"repro/pkg/api"
)

// Request is one generated API call.  The server receives only Kind,
// Family and Shape; Phase says which part of the run sends it.
type Request struct {
	Phase  string `json:"phase"` // warmup, capacity or latency
	Kind   string `json:"kind"`  // plan, embed or compare
	Family string `json:"family"`
	Shape  string `json:"shape"` // in the requested axis order
}

// Stream is a workload's generated request sequence, phase by phase.
type Stream struct {
	Warmup   []Request
	Capacity []Request
	Latency  []Request
	// Rate is the latency phase's fixed arrival rate, requests per second.
	Rate float64
}

// All returns every request in send order.
func (s *Stream) All() []Request {
	out := make([]Request, 0, len(s.Warmup)+len(s.Capacity)+len(s.Latency))
	out = append(out, s.Warmup...)
	out = append(out, s.Capacity...)
	return append(out, s.Latency...)
}

// Workload sizes.  Every phase is a fixed number of requests derived from
// the run length, never a duration: a faster server finishes the same work
// sooner instead of doing more of it.  A phase's count is its share of the
// run length times its nominal rate (the capacity phase's rate is what the
// server sustained when the workload was defined).
const (
	hotCapacityShare = 0.5
	hotCapacityRate  = 8000
	hotRate          = 800
	// cold-embed spends most of the run on the latency phase, whose
	// requests are expensive: it needs the time to collect its samples.
	coldCapacityShare = 0.25
	coldCapacityRate  = 50
	coldRate          = 25
	// cold-embed node counts are log-uniform in [2^coldMinLog, 2^coldMaxLog].
	coldMinLog = 8
	coldMaxLog = 18
)

// phaseSize is a phase's request count for a run of the given length.
func phaseSize(seconds int, share, rate float64) int {
	return int(float64(seconds) * share * rate)
}

// hot-mix kind weights (percent): plan, embed, compare.
var hotKinds = []weighted{{"plan", 45}, {"embed", 35}, {"compare", 20}}

// coldKinds is cold-embed's kind cycle (40 % embed, 40 % plan, 20 %
// compare) and coldFamilies its family cycle: consecutive size strata take
// consecutive entries, so every kind and family gets the same size profile
// on every seed.
var (
	coldKinds    = []string{"embed", "plan", "embed", "plan", "compare"}
	coldFamilies = []guest.Family{guest.Mesh, guest.Torus, guest.Cylinder}
)

type weighted struct {
	name string
	pct  int
}

func pick(rng *rand.Rand, ws []weighted) string {
	x := rng.Intn(100)
	for _, w := range ws {
		if x < w.pct {
			return w.name
		}
		x -= w.pct
	}
	return ws[len(ws)-1].name
}

// poolEntry is one hot-mix pool shape in canonical order.
type poolEntry struct {
	family guest.Family
	shape  mesh.Shape
}

// hotPool draws the hot-mix pool: five 3-D shapes of each wrapped or
// unwrapped family and three complete binary trees, all small enough that
// the warm-up is cheap.
func hotPool(rng *rand.Rand) []poolEntry {
	var pool []poolEntry
	seen := map[string]bool{}
	for _, fam := range []guest.Family{guest.Mesh, guest.Torus, guest.Cylinder} {
		for n := 0; n < 5; {
			sh := randomShape(rng, fam, 6+rng.Float64()*6) // 64..4096 nodes
			canon, _ := guest.Get(fam).Canonical(sh)
			k := fam.String() + "|" + canon.String()
			if seen[k] {
				continue
			}
			seen[k] = true
			pool = append(pool, poolEntry{fam, canon})
			n++
		}
	}
	for _, h := range rng.Perm(7)[:3] {
		pool = append(pool, poolEntry{guest.Tree, mesh.Shape{1<<(h+6) - 1}})
	}
	return pool
}

// permutations lists the requested axis orders the family admits for a
// canonical shape: every order for mesh and torus, the unwrapped prefix
// for the cylinder, none for the tree.  Duplicates (equal axes) are kept
// once.
func permutations(fam guest.Family, canon mesh.Shape) []mesh.Shape {
	var free int
	switch fam {
	case guest.Mesh, guest.Torus:
		free = len(canon)
	case guest.Cylinder:
		free = len(canon) - 1
	default:
		return []mesh.Shape{canon.Clone()}
	}
	var out []mesh.Shape
	seen := map[string]bool{}
	var rec func(prefix mesh.Shape, rest []int)
	rec = func(prefix mesh.Shape, rest []int) {
		if len(rest) == 0 {
			sh := append(prefix.Clone(), canon[free:]...)
			if !seen[sh.String()] {
				seen[sh.String()] = true
				out = append(out, sh)
			}
			return
		}
		for i := range rest {
			next := append(append([]int{}, rest[:i]...), rest[i+1:]...)
			rec(append(prefix.Clone(), rest[i]), next)
		}
	}
	rec(nil, append([]int{}, canon[:free]...))
	return out
}

// populationSeed fixes the hot-mix pool and the cold-embed population, so
// that every seed sends the same shapes in a different order or axis
// order.  Cold request costs are heavy-tailed (the slowest 5 % of shapes
// take over half the compute), so a population redrawn per seed would make
// the run-to-run spread a property of the draw rather than of the server.
const populationSeed = 1990

// HotMix generates the hot-mix stream for a run of the given length.
func HotMix(seed int64, seconds int) *Stream {
	pool := hotPool(rand.New(rand.NewSource(populationSeed)))
	rng := rand.New(rand.NewSource(seed))
	perms := make([][]mesh.Shape, len(pool))
	for i, e := range pool {
		perms[i] = permutations(e.family, e.shape)
	}
	st := &Stream{Rate: hotRate}
	// The warm-up sends every distinct request the measured phases can
	// send, once, so that each of them is an L0 hit afterwards (plan keys
	// keep the requested axis order).
	for _, kind := range []string{"plan", "embed", "compare"} {
		for i, e := range pool {
			for _, sh := range perms[i] {
				st.Warmup = append(st.Warmup, Request{"warmup", kind, e.family.String(), sh.String()})
			}
		}
	}
	draw := func(phase string) Request {
		i := rng.Intn(len(pool))
		sh := perms[i][rng.Intn(len(perms[i]))]
		return Request{phase, pick(rng, hotKinds), pool[i].family.String(), sh.String()}
	}
	for n := phaseSize(seconds, hotCapacityShare, hotCapacityRate); n > 0; n-- {
		st.Capacity = append(st.Capacity, draw("capacity"))
	}
	for n := phaseSize(seconds, 1-hotCapacityShare, hotRate); n > 0; n-- {
		st.Latency = append(st.Latency, draw("latency"))
	}
	return st
}

// ColdEmbed generates the cold-embed stream: no (family, canonical shape)
// pair repeats anywhere in it, so every request misses both the server's
// result cache and its planner's plan cache.  Each phase's shapes and their
// order come from a fixed population whose node counts are stratified
// log-uniform, jointly with the request kind and the family; the seed draws
// every request's axis order.  (The order is fixed too: with two clients,
// whether the few slowest requests arrive back to back moves the open-loop
// median by a third.)
func ColdEmbed(seed int64, seconds int) *Stream {
	pop := rand.New(rand.NewSource(populationSeed))
	seen := map[string]bool{}
	treeUsed := map[int]bool{}
	st := &Stream{Rate: coldRate}
	st.Capacity = coldPhase(pop, "capacity", phaseSize(seconds, coldCapacityShare, coldCapacityRate), seen, treeUsed)
	st.Latency = coldPhase(pop, "latency", phaseSize(seconds, 1-coldCapacityShare, coldRate), seen, treeUsed)
	rng := rand.New(rand.NewSource(seed))
	for _, reqs := range [][]Request{st.Capacity, st.Latency} {
		pop.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
		for i := range reqs {
			fam, _, canon, _ := parseReq(reqs[i]) // generated: cannot fail
			perms := permutations(fam, canon)
			reqs[i].Shape = perms[rng.Intn(len(perms))].String()
		}
	}
	return st
}

// coldPhase draws n cold requests whose (family, canonical shape) pairs are
// not in seen, one per size stratum.
func coldPhase(rng *rand.Rand, phase string, n int, seen map[string]bool, treeUsed map[int]bool) []Request {
	reqs := make([]Request, 0, n)
	for s := 0; s < n; s++ {
		logN := coldMinLog + (coldMaxLog-coldMinLog)*(float64(s)+rng.Float64())/float64(n)
		kind := coldKinds[s%len(coldKinds)]
		fam := coldFamilies[s/len(coldKinds)%len(coldFamilies)]
		var sh mesh.Shape
		// About one stratum in 32 is a complete binary tree, each height
		// at most once.
		if h := int(math.Round(logN)); s%32 == 7 && !treeUsed[h] {
			treeUsed[h] = true
			fam, sh = guest.Tree, mesh.Shape{1<<h - 1}
		} else {
			for {
				sh = randomShape(rng, fam, logN)
				canon, _ := guest.Get(fam).Canonical(sh)
				if k := fam.String() + "|" + canon.String(); !seen[k] {
					seen[k] = true
					break
				}
			}
		}
		reqs = append(reqs, Request{phase, kind, fam.String(), sh.String()})
	}
	return reqs
}

// randomShape draws a 3-D guest of about 2^logN nodes; the cylinder's
// wrapped axis is the last.  Wrapped axes are at least 3 long, others at
// least 2.
func randomShape(rng *rand.Rand, fam guest.Family, logN float64) mesh.Shape {
	cuts := []float64{rng.Float64() * logN, rng.Float64() * logN}
	sort.Float64s(cuts)
	logs := []float64{cuts[0], cuts[1] - cuts[0], logN - cuts[1]}
	sh := make(mesh.Shape, 3)
	for i, l := range logs {
		minLen := 2
		if fam == guest.Torus || (fam == guest.Cylinder && i == 2) {
			minLen = 3
		}
		sh[i] = max(minLen, int(math.Round(math.Exp2(l))))
	}
	return sh
}

// Job is one batch job of the batch-jobs sequence.
type Job struct {
	Name string // metric suffix: census, epsilon, plansweep_mesh, ...
	Spec api.JobSubmitRequest
}

// Batch job sizes: the census and epsilon tables over the paper's full
// 512^3 domain, and plan sweeps sized so each runs for seconds.
const (
	censusMaxN     = 9
	epsilonMaxN    = 9
	sweepMeshAxis  = 36
	sweepTorusAxis = 24
	sweepMaxNodes  = 1 << 18
	planCensusAxis = 40
	jobDims        = 3
)

// BatchJobs returns the job sequence: census, epsilon and the two plan
// sweeps in a seeded order, then the plan census, which reads the plan
// cache the sweeps warmed.
func BatchJobs(seed int64) []Job {
	rng := rand.New(rand.NewSource(seed))
	jobs := []Job{
		{"census", api.JobSubmitRequest{Kind: api.JobCensus, Census: &api.CensusParams{MaxN: censusMaxN}}},
		{"epsilon", api.JobSubmitRequest{Kind: api.JobEpsilon, Epsilon: &api.EpsilonParams{MaxN: epsilonMaxN}}},
		{"plansweep_mesh", api.JobSubmitRequest{Kind: api.JobPlanSweep, PlanSweep: &api.PlanSweepParams{
			Dims: jobDims, MaxAxis: sweepMeshAxis, MaxNodes: sweepMaxNodes, Family: "mesh"}}},
		{"plansweep_torus", api.JobSubmitRequest{Kind: api.JobPlanSweep, PlanSweep: &api.PlanSweepParams{
			Dims: jobDims, MaxAxis: sweepTorusAxis, MaxNodes: sweepMaxNodes, Family: "torus"}}},
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return append(jobs, Job{"plancensus", api.JobSubmitRequest{Kind: api.JobPlanCensus,
		PlanCensus: &api.PlanCensusParams{Dims: jobDims, MaxAxis: planCensusAxis, Family: "mesh"}}})
}
