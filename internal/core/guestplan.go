package core

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/guest"
	"repro/internal/mesh"
)

// This file is the guest-family side of the planner: PlanGuest routes a
// (family, shape) pair to the family's construction pipeline, reusing the
// mesh planner for strip bases.  Mesh guests go through the usual strategy
// pipelines; tori and cylinders through the Section 6 ring constructions
// (KindRing over a planned base mesh, with the cyclic Gray code and snake
// as the power-of-two shortcut and the fallback); trees through the inorder
// labeling (KindTree, dilation 2, always minimal).

// PlanGuest plans an embedding of the guest (f, s) in the caller's axis
// order with no memoization, the family analogue of PlanShape.  Sweeps
// should use Planner.PlanGuest, which adds the canonical-form cache.
func PlanGuest(f guest.Family, s mesh.Shape, opts Options) (*Plan, error) {
	if err := guest.Validate(f, s); err != nil {
		return nil, err
	}
	return planGuest(f, s, opts), nil
}

// planGuest dispatches a validated guest to its family pipeline.
func planGuest(f guest.Family, s mesh.Shape, opts Options) *Plan {
	switch f {
	case guest.Mesh:
		return newPlanContext(opts, nil, false).planTop(s)
	case guest.Torus:
		return planTorus(s, opts)
	case guest.Cylinder:
		return planCylinder(s, opts)
	case guest.Tree:
		return planTree(s)
	}
	panic(fmt.Sprintf("core: no planner for guest family %v", f))
}

// ringCand builds the KindRing candidate for one strip divisor, or nil when
// the construction cannot reach the minimal cube.  wrapped counts the
// wrapped axes (all of them for a torus, the last one for a cylinder); the
// base — the strip-column mesh, every wrapped axis divided by div — is
// planned fresh (PlanShape semantics) and built once to measure the
// dilation d the Section 6 bounds are stated in.
func ringCand(f guest.Family, s mesh.Shape, div int, opts Options) (*Plan, int) {
	k := s.Dims()
	wrapFrom := 0
	if f == guest.Cylinder {
		wrapFrom = k - 1
	}
	base := make(mesh.Shape, k)
	addedBits := 0
	perAxis := 1
	if div == 4 {
		perAxis = 2
	}
	for i, l := range s {
		if i >= wrapFrom {
			base[i] = (l + div - 1) / div
			addedBits += perAxis
		} else {
			base[i] = l
		}
	}
	if !ringMinimal(s, base, addedBits) {
		return nil, 0
	}
	basePlan := PlanShape(base, opts)
	if !basePlan.Minimal() {
		return nil, 0
	}
	d := basePlan.Build().Dilation()
	var bound int
	if div == 4 {
		bound = max(d, 2)
	} else {
		bound = d + 1
		allEven := true
		for i := wrapFrom; i < k; i++ {
			if s[i]%2 != 0 {
				allEven = false
			}
		}
		if allEven {
			bound = max(d, 1)
		}
	}
	return &Plan{Kind: KindRing, Family: f, Shape: s.Clone(), RingDiv: div,
		CubeDim: basePlan.CubeDim + addedBits, Dilation: bound, Method: 5,
		Child: basePlan}, bound
}

// ringMinimal reports whether the strip construction reaches the minimal
// cube: ⌈Πℓi⌉₂ == 2^addedBits · ⌈Π base⌉₂ (the side conditions of Lemmas 3
// and 4, generalized to an arbitrary set of wrapped axes).
func ringMinimal(s, base mesh.Shape, addedBits int) bool {
	var prod, bprod uint64 = 1, 1
	for _, l := range s {
		prod *= uint64(l)
	}
	for _, l := range base {
		bprod *= uint64(l)
	}
	return bits.CeilPow2(prod) == (uint64(1)<<uint(addedBits))*bits.CeilPow2(bprod)
}

// planRings runs the shared torus/cylinder candidate selection: quartering
// first, then halving, keeping the minimal candidate with the strictly
// lowest dilation bound; the snake fallback (valid and minimal, dilation
// measured) covers shapes neither construction reaches.
func planRings(f guest.Family, s mesh.Shape, opts Options) *Plan {
	var best *Plan
	bestBound := int(^uint(0) >> 1)
	for _, div := range []int{4, 2} {
		if cand, bound := ringCand(f, s, div, opts); cand != nil && bound < bestBound {
			best, bestBound = cand, bound
		}
	}
	if best != nil {
		return best
	}
	p := snakePlan(s)
	p.Family = f
	p.Method = 5
	return p
}

// planTorus reproduces the construction choice of the historical
// wrap.Embed: cyclic Gray code when every axis is a power of two, else the
// best of quartering/halving over a planned base mesh, else snake.
func planTorus(s mesh.Shape, opts Options) *Plan {
	allPow2 := true
	for _, l := range s {
		if !bits.IsPow2(uint64(l)) {
			allPow2 = false
			break
		}
	}
	if allPow2 {
		return &Plan{Kind: KindGray, Family: guest.Torus, Shape: s.Clone(),
			CubeDim: s.GrayCubeDim(), Dilation: 1, Method: 1}
	}
	return planRings(guest.Torus, s, opts)
}

// planCylinder embeds the path×…×path×cycle products: the Gray code is
// dilation one when the wrapped last axis has power-of-two length (the
// cyclic code closes the ring), so it wins whenever it is minimal; shapes
// of length ≤ 2 on the last axis are plain meshes and use the mesh
// pipeline; everything else goes through the last-axis ring constructions.
func planCylinder(s mesh.Shape, opts Options) *Plan {
	k := s.Dims()
	l := s[k-1]
	if l <= 2 {
		// The ring edge coincides with (or is) a mesh edge: plan as a mesh
		// and stamp the family.
		p := newPlanContext(opts, nil, false).planTop(s)
		p.Family = guest.Cylinder
		return p
	}
	if bits.IsPow2(uint64(l)) && s.GrayMinimal() {
		return &Plan{Kind: KindGray, Family: guest.Cylinder, Shape: s.Clone(),
			CubeDim: s.GrayCubeDim(), Dilation: 1, Method: 1}
	}
	return planRings(guest.Cylinder, s, opts)
}

// planTree plans the complete binary tree: the inorder labeling is always
// minimal with dilation 2 (1-node trees have no edges, hence dilation 0).
func planTree(s mesh.Shape) *Plan {
	d := 2
	if s[0] == 1 {
		d = 0
	}
	return &Plan{Kind: KindTree, Family: guest.Tree, Shape: s.Clone(),
		CubeDim: s.MinCubeDim(), Dilation: d, Method: 5}
}

// PlanGuest is the caching counterpart of the package-level PlanGuest: the
// family's canonical form (axis-sorted for mesh and torus, sorted prefix
// for the cylinder, identity for the tree) keys the shared plan cache, and
// the cached tree is mapped back to the caller's axis order.  It panics on
// invalid guests; TryPlanGuest returns the error instead.
func (pl *Planner) PlanGuest(f guest.Family, s mesh.Shape) *Plan {
	p, err := pl.TryPlanGuest(f, s)
	if err != nil {
		panic(err)
	}
	return p
}

// TryPlanGuest is PlanGuest returning guest-validation failures as errors,
// for callers planning untrusted input (the HTTP handlers and batch jobs).
func (pl *Planner) TryPlanGuest(f guest.Family, s mesh.Shape) (*Plan, error) {
	if err := guest.Validate(f, s); err != nil {
		return nil, err
	}
	if f == guest.Mesh {
		return pl.pc.planTop(s), nil
	}
	canon, axmap := guest.Get(f).Canonical(s)
	var key string
	if pl.pc.cache != nil {
		key = "g|" + f.String() + "|" + cacheKey(canon, 0, pl.pc.fp)
		if p, ok := pl.pc.cache.get(key); ok {
			return permutePlan(p, axmap), nil
		}
	}
	p := planGuest(f, canon, pl.Options())
	if pl.pc.cache != nil {
		pl.pc.cache.put(key, p)
	}
	return permutePlan(p, axmap), nil
}

// FamilyShapes lists every canonical guest shape of the family within the
// bounds: the concatenation of FamilyShapesFrom over first = 1..maxAxis.
func FamilyShapes(f guest.Family, dims, maxAxis, maxNodes int) []mesh.Shape {
	var out []mesh.Shape
	for first := 1; first <= maxAxis; first++ {
		out = append(out, FamilyShapesFrom(f, first, dims, maxAxis, maxNodes)...)
	}
	return out
}

// FamilyShapesFrom lists the canonical guest shapes of the family whose
// first axis is exactly `first`, the family analogue of SortedShapesFrom
// (and identical to it for mesh and torus).  Cylinders keep their
// distinguished last axis free while the prefix stays sorted, so each
// cache-canonical class appears exactly once; trees are the single-axis
// shapes [2^h − 1], all emitted from the first == 1 chunk.  Concatenating
// first = 1..maxAxis enumerates every canonical shape within the bounds.
func FamilyShapesFrom(f guest.Family, first, dims, maxAxis, maxNodes int) []mesh.Shape {
	switch f {
	case guest.Mesh, guest.Torus:
		return SortedShapesFrom(first, dims, maxAxis, maxNodes)
	case guest.Cylinder:
		if dims == 1 {
			if first >= 1 && first <= maxAxis && first <= maxNodes {
				return []mesh.Shape{{first}}
			}
			return nil
		}
		var out []mesh.Shape
		for _, prefix := range SortedShapesFrom(first, dims-1, maxAxis, maxNodes) {
			nodes := prefix.Nodes()
			for l := 1; l <= maxAxis && nodes*l <= maxNodes; l++ {
				out = append(out, append(prefix.Clone(), l))
			}
		}
		return out
	case guest.Tree:
		if first != 1 {
			return nil
		}
		var out []mesh.Shape
		for n := 1; n <= maxAxis && n <= maxNodes; n = 2*n + 1 {
			out = append(out, mesh.Shape{n})
		}
		return out
	}
	panic(fmt.Sprintf("core: no shape enumeration for guest family %v", f))
}
