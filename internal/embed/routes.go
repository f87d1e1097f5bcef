package embed

import (
	"fmt"
	"math"
	mathbits "math/bits"

	"repro/internal/cube"
	"repro/internal/guest"
	"repro/internal/mesh"
)

// Route codes.  A pinned guest edge whose images are d apart (2 ≤ d ≤ 4) is
// realized as one of the d! shortest cube paths between them, each a flip
// order of the d differing bits.  Its route code is the lexicographic rank
// of that order among all orders of the differing bits taken in ascending
// dimension order, walking from Map[U] of the edge as its family enumerates
// it.  Code 0 is the ascending order — exactly the e-cube route the metrics
// take for an unpinned edge — so a zero byte needs no pin, and the rank
// order is the order cube.ShortestPaths lists the paths in.
//
// Ranks survive every lifting the constructions perform: placing a route in
// a copy of the cube fixes bits outside the differing ones, and shifting
// every dimension by the same amount keeps their relative order.  Only a
// reversal of the edge's orientation changes the code (ReverseRoute).

// maxRouteDist is the largest endpoint distance a route code can order.
const maxRouteDist = 4

// routeCount[d] is d!, the number of shortest routes at distance d.
var routeCount = [maxRouteDist + 1]int{1, 1, 2, 6, 24}

// routeOrder[d][c] packs the flip order of rank c at distance d, two bits
// per step: step j flips the (routeOrder[d][c]>>2j)&3-th differing bit in
// ascending order.  routeReverse[d][c] is the rank of the same path walked
// from its other end, i.e. of the reversed flip order.
var routeOrder, routeReverse [maxRouteDist + 1][24]uint8

func init() {
	for d := 0; d <= maxRouteDist; d++ {
		rank := map[uint8]uint8{}
		perm := make([]int, d)
		var orders []uint8
		var rec func(used, depth int)
		rec = func(used, depth int) {
			if depth == d {
				var packed uint8
				for j, p := range perm {
					packed |= uint8(p) << (2 * j)
				}
				rank[packed] = uint8(len(orders))
				orders = append(orders, packed)
				return
			}
			for i := 0; i < d; i++ {
				if used&(1<<i) == 0 {
					perm[depth] = i
					rec(used|1<<i, depth+1)
				}
			}
		}
		rec(0, 0)
		for c, packed := range orders {
			routeOrder[d][c] = packed
			var rev uint8
			for j := 0; j < d; j++ {
				rev |= (packed >> (2 * j) & 3) << (2 * (d - 1 - j))
			}
			routeReverse[d][c] = rank[rev]
		}
	}
}

// ReverseRoute returns the code of the route coded c between endpoint
// images d apart, walked from the other end.  Only distances 2 to 4 have
// a choice of route; any other edge keeps code 0, the e-cube route from
// whichever end generates it.
func ReverseRoute(c uint8, d int) uint8 {
	if d < 2 || d > maxRouteDist {
		return c
	}
	return routeReverse[d][c]
}

// routeBits returns the d differing bits of diff (d = popcount(diff) ≤
// maxRouteDist) in the flip order of route code c.
func routeBits(diff uint64, c uint8) (flips [maxRouteDist]uint64) {
	var asc [maxRouteDist]uint64
	d := 0
	for ; diff != 0; d++ {
		asc[d] = diff & -diff
		diff &= diff - 1
	}
	ord := routeOrder[d][c]
	for j := 0; j < d; j++ {
		flips[j] = asc[ord>>(2*j)&3]
	}
	return flips
}

// RouteSlots returns the length of a non-nil Routes table for the guest:
// Nodes·Dims for the mesh, torus and cylinder, Nodes−1 for the tree.
func (e *Embedding) RouteSlots() int {
	if e.Family == guest.Tree {
		return max(e.Guest.Nodes()-1, 0)
	}
	return e.Guest.Nodes() * e.Guest.Dims()
}

// MeshRoute returns the route code of the edge that node generates along
// axis in a mesh (node → node + stride(axis)), 0 when nothing is pinned.
func (e *Embedding) MeshRoute(node, axis int) uint8 {
	if e.Routes == nil {
		return 0
	}
	return e.Routes[node*e.Guest.Dims()+axis]
}

// SetMeshRoute records route code c for the edge that node generates along
// axis in a mesh; Routes must already hold RouteSlots() bytes.
func (e *Embedding) SetMeshRoute(node, axis int, c uint8) {
	e.Routes[node*e.Guest.Dims()+axis] = c
}

// routeSlot returns the Routes index of a guest edge (see Embedding.Routes).
func routeSlot(ed mesh.Edge, dims int, tree bool) int {
	switch {
	case tree:
		return ed.V - 1
	case ed.Wrap:
		return ed.V*dims + ed.Axis
	}
	return ed.U*dims + ed.Axis
}

// verifyRoutes checks the route table: it has one byte per slot, a nonzero
// code sits only on an edge whose images are 2..maxRouteDist apart and is
// below d!, and every slot no edge owns is 0.
func (e *Embedding) verifyRoutes() error {
	if e.Routes == nil {
		return nil
	}
	if len(e.Routes) != e.RouteSlots() {
		return fmt.Errorf("embed: route table has %d slots, guest %v has %d", len(e.Routes), e.Guest, e.RouteSlots())
	}
	pinned := 0
	for _, c := range e.Routes {
		if c != 0 {
			pinned++
		}
	}
	if pinned == 0 {
		return nil
	}
	dims, tree := e.Guest.Dims(), e.Family == guest.Tree
	var bad error
	matched := 0
	e.eachGuestEdge(func(ed mesh.Edge) {
		c := e.Routes[routeSlot(ed, dims, tree)]
		if c == 0 || bad != nil {
			return
		}
		matched++
		if d := cube.Dist(e.Map[ed.U], e.Map[ed.V]); d < 2 || d > maxRouteDist || int(c) >= routeCount[d] {
			bad = fmt.Errorf("embed: edge (%d,%d): route code %d invalid at distance %d", ed.U, ed.V, c, d)
		}
	})
	if bad != nil || matched == pinned {
		return bad
	}
	// Some nonzero code sits on a slot no edge owns; only this error path
	// pays for the table that names it.
	owned := make([]bool, len(e.Routes))
	e.eachGuestEdge(func(ed mesh.Edge) { owned[routeSlot(ed, dims, tree)] = true })
	for s, c := range e.Routes {
		if c != 0 && !owned[s] {
			return fmt.Errorf("embed: route code %d on slot %d, which is no guest edge", c, s)
		}
	}
	return nil
}

// flipLink returns the cube.LinkIndex of the link crossed by flipping the
// single bit `bit` of node cur in an n-cube: the bit's dimension block,
// then the row of cur with that bit squeezed out — the bits below it in
// place, the bits above it shifted down by one.
func flipLink(cur, bit uint64, n int) int {
	below := bit - 1
	return mathbits.TrailingZeros64(bit)<<uint(n-1) | int(cur&below|cur>>1&^below)
}

// RealizeMinCongestion chooses, for every guest edge whose images are 2 to
// maxRouteDist apart, the shortest route with the lightest maximum link
// load so far (greedy in edge order, first lightest in rank order), and
// records it in Routes, replacing any earlier choice.  Other edges keep the
// e-cube route.  This is how the congestion-2 figures of the direct
// embeddings are attained.
func (e *Embedding) RealizeMinCongestion() {
	loads := make([]int32, cube.NumLinks(e.N))
	e.Routes = make([]uint8, e.RouteSlots())
	dims, tree, n := e.Guest.Dims(), e.Family == guest.Tree, e.N
	e.eachGuestEdge(func(ed mesh.Edge) {
		a := uint64(e.Map[ed.U])
		diff := a ^ uint64(e.Map[ed.V])
		d := mathbits.OnesCount64(diff)
		if d < 2 || d > maxRouteDist {
			for cur := a; diff != 0; diff &= diff - 1 {
				bit := diff & -diff
				loads[flipLink(cur, bit, n)]++
				cur ^= bit
			}
			return
		}
		best, bestW := uint8(0), int32(math.MaxInt32)
		for c := uint8(0); int(c) < routeCount[d]; c++ {
			flips := routeBits(diff, c)
			w, cur := int32(0), a
			for _, bit := range flips[:d] {
				w = max(w, loads[flipLink(cur, bit, n)])
				cur ^= bit
			}
			if w < bestW {
				best, bestW = c, w
			}
		}
		e.Routes[routeSlot(ed, dims, tree)] = best
		flips := routeBits(diff, best)
		for cur, j := a, 0; j < d; j++ {
			loads[flipLink(cur, flips[j], n)]++
			cur ^= flips[j]
		}
	})
}
