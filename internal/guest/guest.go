// Package guest is the guest-topology family registry: the seam that lets
// the planner, the fused metrics engine, the HTTP service and the batch
// jobs treat "which graph is being embedded" as data instead of hardwired
// mesh/torus branches.
//
// A guest graph is identified by a (Family, mesh.Shape) pair.  The Shape
// fixes the node set — dense indices 0..Nodes()−1 in the usual axis-0-fastest
// order — and the Family fixes the edge interpretation:
//
//	mesh      k-D grid, no wraparound
//	torus     k-D grid, every axis wraps
//	cylinder  k-D grid, only the last axis wraps (path×…×path×cycle)
//	tree      single-axis shape [2^h − 1], the heap-ordered complete
//	          binary tree
//
// Each family's Desc bundles exactly what the layers above need: edge
// count, the partitionable EachEdgeRange enumeration the fused metrics
// pass walks, the canonical form under which plans and results are
// cached, family-specific shape validation, and the strategy-applicability
// gates the planner consults (Decomposable, Wraps).
//
// To add a family: define its edge enumeration on mesh.Shape (keeping the
// EachEdgeRange partition contract — disjoint node ranges generate disjoint
// edge sets), add a Family constant here, run `go generate ./internal/guest`,
// and register a Desc in init.  The conformance suite in guest_test.go
// picks every registered family up automatically; see DESIGN.md §4h for the
// full walk-through.
package guest

import (
	"fmt"

	"repro/internal/mesh"
)

//go:generate go run repro/cmd/enumgen -type Family

// Family identifies a registered guest topology family.  The zero value is
// Mesh, so existing mesh-embedding values remain valid by default.
type Family int32

const (
	Mesh Family = iota
	Torus
	Cylinder
	Tree
)

// Spec is a concrete guest graph: a family plus an axis-length shape.
type Spec struct {
	Family Family
	Shape  mesh.Shape
}

// String renders "family:shape" ("mesh:" is kept for symmetry, callers
// that want the historical bare form print the Shape directly).
func (g Spec) String() string { return g.Family.String() + ":" + g.Shape.String() }

// Desc describes one family to the layers above.  All function fields are
// pure and safe for concurrent use; the enumeration field is called on the
// metrics hot path (once per node block), so implementations must not
// allocate beyond their own scratch space.
type Desc struct {
	Family Family

	// Validate checks family-specific shape constraints beyond
	// mesh.Shape.Validate (e.g. the tree's 2^h − 1 node count).
	Validate func(s mesh.Shape) error

	// Edges returns the family's edge count for the shape.
	Edges func(s mesh.Shape) int

	// EachEdgeRange enumerates the edges generated by node indices
	// [lo, hi).  A partition of [0, Nodes()) must partition the edge set.
	EachEdgeRange func(s mesh.Shape, lo, hi int, fn func(mesh.Edge))

	// Canonical returns the cache-canonical shape and the axis map
	// (axmap[j] = position in s of canonical axis j).  Metrics are
	// invariant under the relabelings Canonical identifies, which is what
	// makes canonical-key result caching sound.
	Canonical func(s mesh.Shape) (mesh.Shape, []int)

	// Decomposable gates the graph-decomposition strategy pipeline
	// (§3–5 of the paper): true only for families whose edges are exactly
	// the mesh edges.
	Decomposable bool

	// Wraps reports whether the family has wraparound edges (used by the
	// planner's ring constructions and by reporting).
	Wraps bool
}

// registry is indexed by Family.  It is populated in init and read-only
// afterwards, so lookups need no locking.
var registry []Desc

// Register adds a family descriptor.  Families must be registered in
// Family order (the registry is a dense array); re-registration panics.
func Register(d Desc) {
	if int(d.Family) != len(registry) {
		panic(fmt.Sprintf("guest: family %d registered out of order (have %d)", d.Family, len(registry)))
	}
	if d.Validate == nil || d.Edges == nil || d.EachEdgeRange == nil || d.Canonical == nil {
		panic(fmt.Sprintf("guest: family %v registered with nil hooks", d.Family))
	}
	registry = append(registry, d)
}

// Get returns the descriptor of a registered family.
func Get(f Family) Desc {
	if int(f) < 0 || int(f) >= len(registry) {
		panic(fmt.Sprintf("guest: unregistered family %d", f))
	}
	return registry[int(f)]
}

// All lists every registered family descriptor in Family order.
func All() []Desc {
	out := make([]Desc, len(registry))
	copy(out, registry)
	return out
}

// ByName resolves a family wire name ("mesh", "torus", "cylinder",
// "tree"); the empty string resolves to Mesh for backward compatibility
// with pre-family requests.
func ByName(name string) (Desc, error) {
	if name == "" {
		return Get(Mesh), nil
	}
	f, err := ParseFamily(name)
	if err != nil {
		return Desc{}, err
	}
	return Get(f), nil
}

// Validate checks s as a guest shape of family f: the generic axis checks
// plus the family's own constraints.
func Validate(f Family, s mesh.Shape) error {
	if err := s.Validate(); err != nil {
		return err
	}
	return Get(f).Validate(s)
}

func validateAny(mesh.Shape) error { return nil }

func validateTree(s mesh.Shape) error {
	if len(s) != 1 {
		return fmt.Errorf("guest: tree shapes have exactly one axis, got %s", s)
	}
	if !s.TreeNodes() {
		return fmt.Errorf("guest: tree shape %s is not 2^h-1 nodes", s)
	}
	return nil
}

func sortAll(s mesh.Shape) (mesh.Shape, []int) { return s.SortCanonical() }

func sortPrefix(s mesh.Shape) (mesh.Shape, []int) {
	return s.SortCanonicalPrefix(len(s) - 1)
}

func identityCanonical(s mesh.Shape) (mesh.Shape, []int) {
	axmap := make([]int, len(s))
	for i := range axmap {
		axmap[i] = i
	}
	return s.Clone(), axmap
}

func init() {
	Register(Desc{
		Family:        Mesh,
		Validate:      validateAny,
		Edges:         mesh.Shape.Edges,
		EachEdgeRange: mesh.Shape.EachEdgeRange,
		Canonical:     sortAll,
		Decomposable:  true,
	})
	Register(Desc{
		Family:        Torus,
		Validate:      validateAny,
		Edges:         mesh.Shape.TorusEdges,
		EachEdgeRange: mesh.Shape.EachTorusEdgeRange,
		Canonical:     sortAll,
		Wraps:         true,
	})
	Register(Desc{
		Family:        Cylinder,
		Validate:      validateAny,
		Edges:         mesh.Shape.CylinderEdges,
		EachEdgeRange: mesh.Shape.EachCylinderEdgeRange,
		Canonical:     sortPrefix,
		Wraps:         true,
	})
	Register(Desc{
		Family:        Tree,
		Validate:      validateTree,
		Edges:         mesh.Shape.TreeEdges,
		EachEdgeRange: mesh.Shape.EachTreeEdgeRange,
		Canonical:     identityCanonical,
	})
}
