package core

import (
	"repro/internal/mesh"
)

// SortedShapesFrom lists every shape with dims axes, first = a₁ ≤ … ≤ a_k ≤
// maxAxis and at most maxNodes nodes, in lexicographic order.  It is the
// enumeration behind `embedctl sweep` and the plansweep batch job, which
// shard the sweep by first axis: concatenating first = 1..maxAxis lists
// every sorted shape, which is what makes a first-axis chunking of the
// sweep resume-safe — the record stream is independent of how the
// enumeration was cut.
func SortedShapesFrom(first, dims, maxAxis, maxNodes int) []mesh.Shape {
	if dims < 1 || first < 1 || first > maxAxis || first > maxNodes {
		return nil
	}
	var out []mesh.Shape
	cur := make(mesh.Shape, dims)
	cur[0] = first
	var rec func(i, lo, nodes int)
	rec = func(i, lo, nodes int) {
		if i == dims {
			out = append(out, cur.Clone())
			return
		}
		for l := lo; l <= maxAxis; l++ {
			if nodes*l > maxNodes {
				break
			}
			cur[i] = l
			rec(i+1, l, nodes*l)
		}
	}
	rec(1, first, first)
	return out
}
