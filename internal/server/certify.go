package server

import (
	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/mesh"
	"repro/pkg/api"
)

// This file assembles the api.Certificate served on /v1/plan, /v1/embed
// and /v1/compare from the certified floors of internal/bounds.  The
// bounds are permutation-consistent with each family's canonical form, so
// certificates are computed in the caller's axis order and agree with the
// cached canonical results.

// countCert records a served certificate on the metrics registry and
// passes it through.
func (s *Server) countCert(c *api.Certificate) *api.Certificate {
	if c != nil {
		s.m.certTotal.Add(1)
		if c.Optimal {
			s.m.certOptimal.Add(1)
		}
	}
	return c
}

// measuredCertificate certifies fully measured metrics: every gap is
// known, and Optimal means the embedding provably cannot be improved on
// any of the three measures in its cube.
func measuredCertificate(fam guest.Family, sh mesh.Shape, m api.Metrics) *api.Certificate {
	b := bounds.For(fam, sh, m.CubeDim)
	c := &api.Certificate{
		CubeDim:       m.CubeDim,
		LowerBounds:   lowerBounds(b),
		DilationGap:   m.Dilation - b.Dilation,
		WirelengthGap: m.Wirelength - b.Wirelength,
		CongestionGap: m.Congestion - b.Congestion,
	}
	c.GapToOptimal = int64(c.DilationGap) + c.WirelengthGap + int64(c.CongestionGap)
	c.Optimal = c.GapToOptimal == 0
	return c
}

// planCertificate certifies a plan before anything is built (see
// core.CertifyBound; dilBound < 0 means the snake fallback carries none).
// Only the dilation gap is evaluable; wirelength and congestion gaps are
// unknown (−1) except for an edgeless guest, where every metric measures
// zero.
func planCertificate(fam guest.Family, sh mesh.Shape, cubeDim, dilBound int) *api.Certificate {
	b, gap, optimal := core.CertifyBound(fam, sh, cubeDim, dilBound)
	c := &api.Certificate{
		CubeDim:       cubeDim,
		LowerBounds:   lowerBounds(b),
		DilationGap:   gap,
		WirelengthGap: -1,
		CongestionGap: -1,
		GapToOptimal:  int64(gap),
		Optimal:       optimal,
	}
	if b.Dilation == 0 {
		c.WirelengthGap, c.CongestionGap = 0, 0
	}
	return c
}

func lowerBounds(b bounds.Bounds) api.LowerBounds {
	return api.LowerBounds{Dilation: b.Dilation, Wirelength: b.Wirelength, Congestion: b.Congestion}
}

// compareCertificate certifies the comparison as a whole at the minimal
// cube: each gap measures the best any minimal-cube technique achieved
// against the floor (techniques in a larger cube — the Gray baseline on
// non-Gray-minimal shapes — never weaken it).  The snake fallback always
// reaches the minimal cube, so a minimal-cube row exists.
func compareCertificate(fam guest.Family, sh mesh.Shape, rows []api.CompareRow) *api.Certificate {
	best := api.Metrics{CubeDim: sh.MinCubeDim()}
	found := false
	for _, row := range rows {
		m := row.Metrics
		if m.CubeDim != best.CubeDim {
			continue
		}
		if !found {
			best.Dilation, best.Wirelength, best.Congestion = m.Dilation, m.Wirelength, m.Congestion
			found = true
			continue
		}
		best.Dilation = min(best.Dilation, m.Dilation)
		best.Wirelength = min(best.Wirelength, m.Wirelength)
		best.Congestion = min(best.Congestion, m.Congestion)
	}
	if !found {
		return nil
	}
	return measuredCertificate(fam, sh, best)
}
