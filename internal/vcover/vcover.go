// Package vcover implements minimum vertex cover (and by complement,
// maximum independent set) on bounded-treewidth graphs — a further FPT
// problem on the paper's framework (Section 7: "We are therefore planning
// to tackle many more problems, whose FPT was established via Courcelle's
// Theorem, with this new approach"). The transitions are one
// solver.Problem instance evaluated by the generic semiring engine: the
// tropical semiring yields the minimum cover (with a witness set), the
// counting semiring the number of covers, the boolean semiring the
// trivial decision.
package vcover

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/decompose"
	"repro/internal/graph"
	"repro/internal/solver"
)

// width packs one bit per sorted-bag position: the in-cover bitmask.
const width = solver.Width(1)

// Problem returns the vertex-cover algebra over g as a generic
// solver.Problem, for callers (like the decision service) that run
// named problems through the session Solve* helpers on an existing
// decomposition. Vertex IDs of g must match the decomposition's bag
// elements.
func Problem(g *graph.Graph) solver.Problem[uint64] {
	return coverProblem{g}
}

// coverProblem is the vertex-cover algebra: states are in-cover
// bitmasks over the sorted bag, costs count selected vertices exactly
// once (on introduction or in a leaf; joins subtract the bag overlap
// both children counted).
type coverProblem struct {
	g *graph.Graph
}

func (cp coverProblem) Name() string { return "vertex-cover" }

// covered reports whether every bag-internal edge has an endpoint in
// the cover mask.
func (cp coverProblem) covered(bag []int, m uint64) bool {
	for i := 0; i < len(bag); i++ {
		for j := i + 1; j < len(bag); j++ {
			if cp.g.HasEdge(bag[i], bag[j]) && m>>uint(i)&1 == 0 && m>>uint(j)&1 == 0 {
				return false
			}
		}
	}
	return true
}

func (cp coverProblem) Leaf(dst []solver.Out[uint64], _ int, bag []int) []solver.Out[uint64] {
	for m := uint64(0); m < 1<<uint(len(bag)); m++ {
		if cp.covered(bag, m) {
			cost := 0
			for p := range bag {
				cost += int(m >> uint(p) & 1)
			}
			dst = append(dst, solver.Out[uint64]{State: m, Cost: cost})
		}
	}
	return dst
}

func (cp coverProblem) Introduce(dst []solver.Out[uint64], _ int, bag []int, elem int, child uint64) []solver.Out[uint64] {
	p := solver.Position(bag, elem)
	for bit := uint64(0); bit <= 1; bit++ {
		m := width.Insert(child, p, bit)
		if cp.covered(bag, m) {
			dst = append(dst, solver.Out[uint64]{State: m, Cost: int(bit)})
		}
	}
	return dst
}

func (cp coverProblem) Forget(dst []solver.Out[uint64], _ int, bag []int, elem int, child uint64) []solver.Out[uint64] {
	return append(dst, solver.Out[uint64]{State: width.Drop(child, solver.Rank(bag, elem))})
}

func (cp coverProblem) Join(dst []solver.Out[uint64], _ int, bag []int, s1, s2 uint64) []solver.Out[uint64] {
	if s1 != s2 {
		return dst
	}
	// The bag's cover members are counted in both children; subtract one
	// copy.
	dup := 0
	for p := range bag {
		dup += int(s1 >> uint(p) & 1)
	}
	return append(dst, solver.Out[uint64]{State: s1, Cost: -dup})
}

// Accept: cover constraints are enforced edge-locally throughout, so
// every surviving root state is a full cover.
func (cp coverProblem) Accept(int, []int, uint64) bool { return true }

// MinVertexCover returns the size of a minimum vertex cover of g. It
// evaluates the tropical semiring without provenance: the size needs
// no witness.
func MinVertexCover(g *graph.Graph) (int, error) {
	nice, err := decompose.NiceGraph(g)
	if err != nil {
		return 0, err
	}
	opt, err := solver.Minimum(context.Background(), nice, coverProblem{g})
	if err == nil && opt == nil {
		err = fmt.Errorf("vcover: no feasible state at the root")
	}
	if err != nil {
		return 0, err
	}
	return opt.Value, nil
}

// CoverSet returns a minimum vertex cover itself, by walking the argmin
// derivation of the tropical-semiring tables.
func CoverSet(g *graph.Graph) ([]int, error) {
	der, err := optimize(g)
	if err != nil {
		return nil, err
	}
	return der.Members(g.N(), func(s uint64, p int) bool { return width.At(s, p) == 1 })
}

// optimize runs the tropical semiring with provenance over a min-fill
// nice decomposition of g, for CoverSet's witness walk.
func optimize(g *graph.Graph) (*solver.Derivation[uint64, int], error) {
	nice, err := decompose.NiceGraph(g)
	if err != nil {
		return nil, err
	}
	der, err := solver.Optimize(context.Background(), nice, coverProblem{g})
	if err == nil && der == nil {
		err = fmt.Errorf("vcover: no feasible state at the root")
	}
	return der, err
}

// MaxIndependentSet returns the size of a maximum independent set
// (|V| − minimum vertex cover).
func MaxIndependentSet(g *graph.Graph) (int, error) {
	vc, err := MinVertexCover(g)
	if err != nil {
		return 0, err
	}
	return g.N() - vc, nil
}

// ErrTooLarge reports that the exponential oracle was asked about a
// graph beyond its hard size limit; test with errors.Is.
var ErrTooLarge = errors.New("vcover: graph too large for brute force")

// BruteForceVC is the exponential oracle for tests; beyond 22 vertices
// it returns ErrTooLarge.
func BruteForceVC(g *graph.Graph) (int, error) {
	n := g.N()
	if n > 22 {
		return 0, fmt.Errorf("%w: limited to 22 vertices, got %d", ErrTooLarge, n)
	}
	edges := g.Edges()
	best := n
	for mask := 0; mask < 1<<uint(n); mask++ {
		size := 0
		for v := 0; v < n; v++ {
			size += mask >> uint(v) & 1
		}
		if size >= best {
			continue
		}
		ok := true
		for _, e := range edges {
			if mask>>uint(e[0])&1 == 0 && mask>>uint(e[1])&1 == 0 {
				ok = false
				break
			}
		}
		if ok {
			best = size
		}
	}
	return best, nil
}
