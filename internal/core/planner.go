package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/embed"
	"repro/internal/mesh"
)

// CacheStats reports plan-cache counters.  Size counts cached entries,
// including negative entries (shapes no structured strategy can plan).
type CacheStats struct {
	Hits   uint64
	Misses uint64
	Size   uint64
}

// planCache memoizes planDispatch results keyed by canonical shape, fold
// context and options fingerprint.  Stored plans are never handed out
// directly — every lookup returns a deep copy via permutePlan — so entries
// stay immutable and safe to share across goroutines.
type planCache struct {
	mu     sync.RWMutex
	m      map[string]*Plan
	hits   atomic.Uint64
	misses atomic.Uint64
}

func newPlanCache() *planCache { return &planCache{m: make(map[string]*Plan)} }

func (c *planCache) get(key string) (*Plan, bool) {
	c.mu.RLock()
	p, ok := c.m[key]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return p, ok
}

func (c *planCache) put(key string, p *Plan) {
	c.mu.Lock()
	c.m[key] = p
	c.mu.Unlock()
}

func (c *planCache) stats() CacheStats {
	c.mu.RLock()
	n := len(c.m)
	c.mu.RUnlock()
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Size: uint64(n)}
}

// cacheKey builds the lookup key for a canonical shape.  Fold depth is
// clamped to one bit: strategies only distinguish "may still fold" from
// "fold already spent", so deeper recursion shares entries.
func cacheKey(canon mesh.Shape, foldDepth int, fp string) string {
	f := "|f0|"
	if foldDepth > 0 {
		f = "|f1|"
	}
	return canon.String() + f + fp
}

// canonicalShape returns the axis-sorted (ascending, stable) copy of s and
// the axis map: axmap[j] is the position in s of canonical axis j.
func canonicalShape(s mesh.Shape) (mesh.Shape, []int) {
	axmap := make([]int, len(s))
	for i := range axmap {
		axmap[i] = i
	}
	sort.SliceStable(axmap, func(a, b int) bool { return s[axmap[a]] < s[axmap[b]] })
	canon := make(mesh.Shape, len(s))
	for j, i := range axmap {
		canon[j] = s[i]
	}
	return canon, axmap
}

// permuteShape sends canonical axis j back to original position axmap[j].
// Axes beyond len(axmap) — appended by folding below the canonicalization
// point — keep their positions.
func permuteShape(s mesh.Shape, axmap []int) mesh.Shape {
	out := make(mesh.Shape, len(s))
	for j, l := range s {
		if j < len(axmap) {
			out[axmap[j]] = l
		} else {
			out[j] = l
		}
	}
	return out
}

// permutePlan deep-copies a plan tree, remapping every node's axes from
// canonical back to original order.  It always copies, even for the
// identity map, so cached trees are never aliased by callers.
func permutePlan(p *Plan, axmap []int) *Plan {
	if p == nil {
		return nil
	}
	out := *p
	out.Shape = permuteShape(p.Shape, axmap)
	if p.Super != nil {
		out.Super = permuteShape(p.Super, axmap)
	}
	if p.FoldAxis < len(axmap) {
		out.FoldAxis = axmap[p.FoldAxis]
	}
	if len(p.Factors) > 0 {
		out.Factors = make([]*Plan, len(p.Factors))
		for i, f := range p.Factors {
			out.Factors[i] = permutePlan(f, axmap)
		}
	}
	out.Child = permutePlan(p.Child, axmap)
	if p.solved != nil {
		out.solved = permuteEmbedding(p.solved, axmap)
	}
	return &out
}

// permuteEmbedding rebuilds a solver embedding for the axis-permuted guest:
// node maps transfer through the coordinate relabeling, and pinned routes
// are re-realized deterministically on the permuted edge order.
func permuteEmbedding(e *embed.Embedding, axmap []int) *embed.Embedding {
	ns := permuteShape(e.Guest, axmap)
	out := embed.New(ns, e.N)
	out.Family = e.Family
	k := ns.Dims()
	oc := make([]int, k)
	nc := make([]int, k)
	for idx := range out.Map {
		ns.CoordInto(idx, nc)
		for j := 0; j < k; j++ {
			pos := j
			if j < len(axmap) {
				pos = axmap[j]
			}
			oc[j] = nc[pos]
		}
		out.Map[idx] = e.Map[e.Guest.Index(oc)]
	}
	if e.Routes != nil {
		out.RealizeMinCongestion()
	}
	return out
}

// planCanonical plans via the canonical axis order, consulting the cache
// when one is attached, and maps the result back to the caller's order.
func (pc *planContext) planCanonical(s mesh.Shape, foldDepth int) *Plan {
	canon, axmap := canonicalShape(s)
	var key string
	if pc.cache != nil {
		key = cacheKey(canon, foldDepth, pc.fp)
		if p, ok := pc.cache.get(key); ok {
			return permutePlan(p, axmap)
		}
	}
	p := pc.planDispatch(canon, foldDepth)
	if pc.cache != nil {
		pc.cache.put(key, p)
	}
	return permutePlan(p, axmap)
}

// Planner runs the strategy pipelines through a canonical-shape plan cache:
// axes are sorted before searching, so all permutations of a shape — and
// every recursive sub-shape the strategies revisit during sweeps — share
// one cache entry.  A Planner is immutable after construction and safe for
// concurrent use.
//
// Unlike PlanShape, a Planner plans in canonical axis order even when the
// cache is bypassed (NewUncachedPlanner), so cached and uncached planning
// agree exactly.
type Planner struct {
	pc *planContext
}

// NewPlanner returns a caching planner with the given options.
func NewPlanner(opts Options) *Planner {
	return &Planner{pc: newPlanContext(opts, newPlanCache(), true)}
}

// NewUncachedPlanner returns a planner with the cache disabled but the
// canonicalization identical to NewPlanner — the reference for cache
// equivalence tests and benchmarks.
func NewUncachedPlanner(opts Options) *Planner {
	return &Planner{pc: newPlanContext(opts, nil, true)}
}

// Plan returns a minimal-expansion plan for the shape (see PlanShape).
// The returned tree is exclusively the caller's: cached state is never
// aliased.
func (pl *Planner) Plan(s mesh.Shape) *Plan {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return pl.pc.planTop(s)
}

// TryPlan is Plan returning shape-validation failures as errors instead of
// panicking, for callers planning untrusted input (the HTTP handlers).
func (pl *Planner) TryPlan(s mesh.Shape) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return pl.pc.planTop(s), nil
}

// CacheStats returns the cache counters (zero values when uncached).
func (pl *Planner) CacheStats() CacheStats {
	if pl.pc.cache == nil {
		return CacheStats{}
	}
	return pl.pc.cache.stats()
}

// Options returns the planner's options (with Cost resolved to the model
// actually in use).
func (pl *Planner) Options() Options {
	o := pl.pc.opts
	o.Cost = pl.pc.cost
	return o
}

// Fingerprint returns the option fingerprint (solver budget, solver seed,
// cost model) that keys this planner's cache entries.  Plan-census
// artifacts are stamped with it so a server can refuse to serve records
// computed under different planner options.
func (pl *Planner) Fingerprint() string { return pl.pc.fp }
