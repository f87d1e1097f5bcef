// Package direct provides the direct low-dilation minimal-expansion
// embeddings of Section 3.3: the two-dimensional meshes 3x5, 7x9 and 11x11
// and the three-dimensional meshes 3x3x3 and 3x3x7.  These are the seed
// embeddings that, combined with Gray codes and the graph-decomposition
// technique (Corollary 2), cover the mesh families of Section 5.
//
// The original tables of Ho and Johnsson [13], [14] are not reproduced in
// the paper; the maps here were re-discovered with internal/solver
// (cmd/findembed, deterministic seeds) and satisfy the same properties the
// paper asserts: minimal expansion, dilation two, and — for the
// two-dimensional tables — congestion two under the pinned route
// realization.  The 3x3x7 table achieves congestion three; the paper makes
// no congestion claim for the three-dimensional direct embeddings.
package direct

import (
	"repro/internal/cube"
	"repro/internal/embed"
	"repro/internal/mesh"
)

// Table is a frozen direct embedding.
type Table struct {
	Shape mesh.Shape
	Map   []cube.Node

	// Dilation and Congestion record the verified properties of the
	// table (congestion under RealizeMinCongestion).
	Dilation   int
	Congestion int
}

// Tables lists all direct embeddings, smallest first.
var Tables = []Table{
	{Shape: mesh.Shape{3, 5}, Dilation: 2, Congestion: 2, Map: map3x5},
	{Shape: mesh.Shape{3, 3, 3}, Dilation: 2, Congestion: 2, Map: map3x3x3},
	{Shape: mesh.Shape{7, 9}, Dilation: 2, Congestion: 2, Map: map7x9},
	{Shape: mesh.Shape{3, 3, 7}, Dilation: 2, Congestion: 3, Map: map3x3x7},
	{Shape: mesh.Shape{11, 11}, Dilation: 2, Congestion: 2, Map: map11x11},
}

// Lookup returns the table for the given shape, trying all axis
// permutations, together with the permutation mapping table axes to shape
// axes (shape[i] == table.Shape[perm[i]]).  ok is false when no table
// matches.
func Lookup(s mesh.Shape) (t Table, perm []int, ok bool) {
	for _, tab := range Tables {
		if p, match := matchPermutation(s, tab.Shape); match {
			return tab, p, true
		}
	}
	return Table{}, nil, false
}

// matchPermutation finds a permutation p with s[i] == ref[p[i]] for all i,
// using each axis of ref exactly once.  Shapes of different arity are
// aligned by treating missing axes as length 1.
func matchPermutation(s, ref mesh.Shape) ([]int, bool) {
	k := len(s)
	if len(ref) > k {
		// ref has more axes; they must all be 1 to match, which never
		// happens for the tables here.
		return nil, false
	}
	refPad := make(mesh.Shape, k)
	copy(refPad, ref)
	for i := len(ref); i < k; i++ {
		refPad[i] = 1
	}
	used := make([]bool, k)
	perm := make([]int, k)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == k {
			return true
		}
		for j := 0; j < k; j++ {
			if !used[j] && refPad[j] == s[i] {
				used[j] = true
				perm[i] = j
				if rec(i + 1) {
					return true
				}
				used[j] = false
			}
		}
		return false
	}
	if rec(0) {
		return perm, true
	}
	return nil, false
}

// Embedding instantiates the direct embedding for the given shape (which
// must match a table up to axis permutation) with congestion-minimizing
// pinned routes.
func Embedding(s mesh.Shape) (*embed.Embedding, bool) {
	tab, perm, ok := Lookup(s)
	if !ok {
		return nil, false
	}
	n := tab.Shape.MinCubeDim()
	e := embed.New(s, n)
	refPad := padTo(tab.Shape, len(s))
	coord := make([]int, len(s))
	refCoord := make([]int, len(refPad))
	for idx := range e.Map {
		s.CoordInto(idx, coord)
		for i, j := range perm {
			refCoord[j] = coord[i]
		}
		e.Map[idx] = tab.Map[refPad.Index(refCoord)]
	}
	e.RealizeMinCongestion()
	return e, true
}

func padTo(s mesh.Shape, k int) mesh.Shape {
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
