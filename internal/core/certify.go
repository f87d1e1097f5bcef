package core

import (
	"repro/internal/bounds"
	"repro/internal/guest"
	"repro/internal/mesh"
)

// PlanCertificate evaluates a plan against the certified lower bounds at
// its cube, before anything is built: CertifyBound with the plan's cube and
// a-priori dilation bound (none for the snake fallback).
func PlanCertificate(f guest.Family, s mesh.Shape, p *Plan) (b bounds.Bounds, gap int, optimal bool) {
	dil := p.Dilation
	if dil == DilationUnknown {
		dil = -1
	}
	return CertifyBound(f, s, p.CubeDim, dil)
}

// CertifyBound evaluates an a-priori dilation bound (dilBound < 0 when the
// construction carries none) against the certified lower bounds of the
// guest in the cubeDim-cube: it returns the bounds, the gap of the bound
// over the floor (−1 when there is no bound), and whether the construction
// provably achieves the floor.
//
// The optimality claim is sound without routing: the construction
// guarantees measured dilation ≤ dilBound, and every one-to-one embedding
// satisfies measured dilation ≥ the floor, so a bound equal to the floor
// is achieved exactly.
func CertifyBound(f guest.Family, s mesh.Shape, cubeDim, dilBound int) (b bounds.Bounds, gap int, optimal bool) {
	b = bounds.For(f, s, cubeDim)
	if b.Dilation == 0 {
		// Edgeless guest: every metric measures zero, so any embedding is
		// trivially optimal whatever bound the construction quotes.
		return b, 0, true
	}
	if dilBound < 0 {
		return b, -1, false
	}
	gap = dilBound - b.Dilation
	return b, gap, gap == 0
}
