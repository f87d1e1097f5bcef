// Package core implements the paper's contribution: embedding meshes in
// Boolean cubes by graph decomposition.  The central operation is the
// product-embedding construction of Theorem 3 with the axis-reflection
// refinement of Corollary 2, on top of which the planner of Section 5
// combines Gray codes, two-dimensional embeddings, the direct
// three-dimensional embeddings and axis extension into minimal-expansion
// dilation-two embeddings of three-dimensional meshes.
package core

import (
	"fmt"

	"repro/internal/cube"
	"repro/internal/embed"
	"repro/internal/guest"
	"repro/internal/mesh"
)

// padShape returns the shape extended with trailing 1s to k axes.
func padShape(s mesh.Shape, k int) mesh.Shape {
	if len(s) >= k {
		return s
	}
	out := make(mesh.Shape, k)
	copy(out, s)
	for i := len(s); i < k; i++ {
		out[i] = 1
	}
	return out
}

// Product composes two mesh embeddings into an embedding of the
// componentwise-product mesh (Corollary 2).  If e1 embeds an
// ℓ₁₁×…×ℓ₁k mesh into an n₁-cube and e2 an ℓ₂₁×…×ℓ₂k mesh into an n₂-cube,
// the result embeds the ℓ₁₁ℓ₂₁ × … × ℓ₁kℓ₂k mesh into the (n₁+n₂)-cube:
//
//	φ(z) = φ₂(y) ‖ φ̃₁(y, x),  zᵢ = yᵢ·ℓ₁ᵢ + xᵢ,
//
// where φ̃₁ reflects axis i of the inner mesh whenever yᵢ is odd, so the
// seam between consecutive inner copies reuses the same inner codeword and
// costs only the outer embedding's dilation.  The dilation of the result is
// ≤ max(dil φ₁, dil φ₂) and the congestion ≤ max(cong φ₁, cong φ₂)
// (Theorem 3); expansion multiplies.
//
// Shapes of different arity are aligned by padding with trailing 1s.
// Wraparound embeddings are not composable here (see package wrap).
func Product(e1, e2 *embed.Embedding) *embed.Embedding {
	if e1.Family != guest.Mesh || e2.Family != guest.Mesh {
		panic("core: Product requires plain mesh factors")
	}
	k := e1.Guest.Dims()
	if e2.Guest.Dims() > k {
		k = e2.Guest.Dims()
	}
	s1 := padShape(e1.Guest, k)
	s2 := padShape(e2.Guest, k)
	gs := s1.Product(s2)

	out := embed.New(gs, e1.N+e2.N)
	// Lift the factors' route codes when either carries them, so congestion
	// guarantees transfer (Theorem 3's disjoint-copy argument).
	pinned := e1.Routes != nil || e2.Routes != nil
	if pinned {
		out.Routes = make([]uint8, out.RouteSlots())
	}
	stride1 := make([]int, k)
	for i, st := 0, 1; i < k; i++ {
		stride1[i] = st
		st *= s1[i]
	}
	zc := make([]int, k)
	xc := make([]int, k)
	yc := make([]int, k)
	for z := range out.Map {
		gs.CoordInto(z, zc)
		for i := 0; i < k; i++ {
			xc[i] = zc[i] % s1[i]
			yc[i] = zc[i] / s1[i]
			if yc[i]&1 == 1 { // reflect inner axis i (φ̃₁)
				xc[i] = s1[i] - 1 - xc[i]
			}
		}
		u1, u2 := s1.Index(xc), s2.Index(yc)
		out.Map[z] = cube.Node(uint64(e2.Map[u2])<<uint(e1.N) | uint64(e1.Map[u1]))
		if !pinned {
			continue
		}
		// The edge z → z+1 along axis i is an inner edge (both ends in copy
		// y) unless it crosses into the next copy.  An inner edge takes φ₁'s
		// code, walked from the far end when axis i is reflected; a seam
		// edge takes φ₂'s code for y → y+1, whose bits all move up by n₁.
		for i := 0; i < k; i++ {
			if zc[i]+1 == gs[i] {
				continue
			}
			var c uint8
			switch {
			case (zc[i]+1)%s1[i] == 0:
				c = e2.MeshRoute(u2, i)
			case yc[i]&1 == 0:
				c = e1.MeshRoute(u1, i)
			case e1.Routes != nil:
				v1 := u1 - stride1[i]
				c = embed.ReverseRoute(e1.MeshRoute(v1, i), cube.Dist(e1.Map[u1], e1.Map[v1]))
			}
			out.SetMeshRoute(z, i, c)
		}
	}
	return out
}

// SubMesh restricts an embedding to a smaller mesh contained in its guest
// (componentwise target ≤ guest, same arity after padding).  Edges of the
// submesh are edges of the mesh, so dilation and congestion cannot increase;
// the host cube is unchanged.
func SubMesh(e *embed.Embedding, target mesh.Shape) *embed.Embedding {
	if e.Family != guest.Mesh {
		panic("core: SubMesh requires a plain mesh embedding")
	}
	big := padShape(e.Guest, target.Dims())
	tgt := padShape(target, e.Guest.Dims())
	if !big.Contains(tgt) {
		panic(fmt.Sprintf("core: %v is not contained in %v", target, e.Guest))
	}
	out := embed.New(tgt, e.N)
	if e.Routes != nil {
		out.Routes = make([]uint8, out.RouteSlots())
	}
	coord := make([]int, tgt.Dims())
	for i := range out.Map {
		tgt.CoordInto(i, coord)
		bi := big.Index(coord)
		out.Map[i] = e.Map[bi]
		if out.Routes == nil {
			continue
		}
		// Submesh edges are mesh edges with the same lower endpoint.
		for ax := 0; ax < e.Guest.Dims(); ax++ {
			if coord[ax]+1 < tgt[ax] {
				out.SetMeshRoute(i, ax, e.MeshRoute(bi, ax))
			}
		}
	}
	return out
}
