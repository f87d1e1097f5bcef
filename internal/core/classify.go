package core

import (
	"repro/internal/bits"
	"repro/internal/guest"
	"repro/internal/mesh"
)

// Closed-form plan classifier: the provably-trivial strata of the plan
// space are decidable by pure arithmetic on ⌈log₂⌉s, with no embedding
// construction and no strategy-pipeline run.  ClassifyGuest answers exactly
// the shapes whose plan the full planner derives from an O(1) shortcut —
// the Gray-minimal stratum (planDispatch), the all-power-of-two torus and
// the power-of-two-ring cylinder (the Section 6 cyclic Gray codes), and
// every complete binary tree (the inorder labeling) — and returns the very
// plan tree the planner would build, so callers may substitute it for a
// planner run wherever they hold a valid guest shape.
//
// The claim contract is exact: for every (family, shape) ClassifyGuest
// claims, the returned plan must be structurally identical to
// PlanGuest(family, shape, opts) for every opts (the claimed strata never
// consult the solver budget or the cost model).  TestClassifyParity
// enforces this exhaustively.

// ClassifyShape returns the closed-form plan for a mesh shape, or
// (nil, false) when the shape's plan genuinely needs the strategy
// pipeline.  The shape must already be valid (see mesh.Shape.Validate);
// the classifier performs no validation of its own.
func ClassifyShape(s mesh.Shape) (*Plan, bool) {
	if !s.GrayMinimal() {
		return nil, false
	}
	// Mirrors planDispatch's gray-minimal shortcut, including the paths
	// (≤ 1 active axis), which are always Gray-minimal.
	return &Plan{Kind: KindGray, Shape: s.Clone(), CubeDim: s.MinCubeDim(),
		Dilation: 1, Method: 1}, true
}

// ClassifyGuest is the guest-family counterpart of ClassifyShape: the plan
// for (f, s) when it is closed-form decidable, in the caller's axis order
// (the claimed plans are relabeling-invariant, so no canonicalization is
// needed).  The shape must already be a valid guest of the family.
func ClassifyGuest(f guest.Family, s mesh.Shape) (*Plan, bool) {
	switch f {
	case guest.Mesh:
		return ClassifyShape(s)
	case guest.Torus:
		// planTorus: the cyclic Gray code wins when every axis is a power
		// of two (then Σ⌈log₂⌉ = ⌈log₂ Π⌉, so it is minimal too).
		for _, l := range s {
			if !bits.IsPow2(uint64(l)) {
				return nil, false
			}
		}
		return &Plan{Kind: KindGray, Family: guest.Torus, Shape: s.Clone(),
			CubeDim: s.GrayCubeDim(), Dilation: 1, Method: 1}, true
	case guest.Cylinder:
		// planCylinder: a wrapped axis of length ≤ 2 degenerates to a mesh
		// edge (mesh pipeline, family stamped), so the mesh stratum
		// applies; otherwise the cyclic Gray code closes the ring exactly
		// when the last axis is a power of two, and wins when minimal.
		l := s[s.Dims()-1]
		if l <= 2 {
			p, ok := ClassifyShape(s)
			if !ok {
				return nil, false
			}
			p.Family = guest.Cylinder
			return p, true
		}
		if bits.IsPow2(uint64(l)) && s.GrayMinimal() {
			return &Plan{Kind: KindGray, Family: guest.Cylinder, Shape: s.Clone(),
				CubeDim: s.GrayCubeDim(), Dilation: 1, Method: 1}, true
		}
		return nil, false
	case guest.Tree:
		// planTree: the inorder labeling is the plan for every complete
		// binary tree — this family is answered closed-form in full.
		d := 2
		if s[0] == 1 {
			d = 0
		}
		return &Plan{Kind: KindTree, Family: guest.Tree, Shape: s.Clone(),
			CubeDim: s.MinCubeDim(), Dilation: d, Method: 5}, true
	}
	return nil, false
}
