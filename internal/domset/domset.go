// Package domset implements minimum dominating set on bounded-treewidth
// graphs: a third FPT problem on the paper's dynamic-programming
// framework, with the characteristic three-valued state (in the set /
// dominated / awaiting domination) that distinguishes it from the
// partition DP of Figure 5 and the bitmask DP of vertex cover. The
// transitions are one solver.Problem instance evaluated by the generic
// semiring engine.
package domset

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/decompose"
	"repro/internal/graph"
	"repro/internal/solver"
)

// Vertex statuses, two bits per sorted-bag position.
const (
	inSet       = 0 // selected into the dominating set
	dominated   = 1 // not selected, already dominated by a selected vertex
	undominated = 2 // not selected, no selected neighbor seen yet
)

// width packs one status per sorted-bag position.
const width = solver.Width(2)

// Problem returns the dominating-set algebra over g as a generic
// solver.Problem, for callers (like the decision service) that run
// named problems through the session Solve* helpers on an existing
// decomposition. Vertex IDs of g must match the decomposition's bag
// elements.
func Problem(g *graph.Graph) solver.Problem[uint64] {
	return domProblem{g}
}

// domProblem is the dominating-set algebra: selection costs are paid on
// introduction (or in a leaf); domination statuses propagate through
// bag adjacency and merge by OR at joins; a vertex may only be
// forgotten once settled.
type domProblem struct {
	g *graph.Graph
}

func (dpb domProblem) Name() string { return "dominating-set" }

// propagate marks bag vertices dominated by in-set bag neighbors.
func (dpb domProblem) propagate(bag []int, s uint64) uint64 {
	for i := range bag {
		if width.At(s, i) != inSet {
			continue
		}
		for j := range bag {
			if j != i && dpb.g.HasEdge(bag[i], bag[j]) && width.At(s, j) == undominated {
				s = width.Set(s, j, dominated)
			}
		}
	}
	return s
}

func (dpb domProblem) Leaf(dst []solver.Out[uint64], _ int, bag []int) []solver.Out[uint64] {
	n := len(bag)
	for combo := 0; combo < 1<<uint(n); combo++ {
		var s uint64
		cost := 0
		for p := 0; p < n; p++ {
			if combo>>uint(p)&1 == 1 {
				s = width.Set(s, p, inSet)
				cost++
			} else {
				s = width.Set(s, p, undominated)
			}
		}
		dst = append(dst, solver.Out[uint64]{State: dpb.propagate(bag, s), Cost: cost})
	}
	return dst
}

func (dpb domProblem) Introduce(dst []solver.Out[uint64], _ int, bag []int, elem int, child uint64) []solver.Out[uint64] {
	p := solver.Position(bag, elem)
	// Selected: dominates its bag neighbors. Not selected: dominated iff
	// some bag neighbor is in the set.
	return append(dst,
		solver.Out[uint64]{State: dpb.propagate(bag, width.Insert(child, p, inSet)), Cost: 1},
		solver.Out[uint64]{State: dpb.propagate(bag, width.Insert(child, p, undominated))},
	)
}

func (dpb domProblem) Forget(dst []solver.Out[uint64], _ int, bag []int, elem int, child uint64) []solver.Out[uint64] {
	p := solver.Rank(bag, elem)
	// A vertex may only leave once it is settled.
	if width.At(child, p) == undominated {
		return dst
	}
	return append(dst, solver.Out[uint64]{State: width.Drop(child, p)})
}

func (dpb domProblem) Join(dst []solver.Out[uint64], _ int, bag []int, s1, s2 uint64) []solver.Out[uint64] {
	// Selection must agree; domination merges by OR.
	var merged uint64
	dup := 0
	for p := range bag {
		a, b := width.At(s1, p), width.At(s2, p)
		if (a == inSet) != (b == inSet) {
			return dst
		}
		switch {
		case a == inSet:
			merged = width.Set(merged, p, inSet)
			dup++ // counted in both children
		case a == dominated || b == dominated:
			merged = width.Set(merged, p, dominated)
		default:
			merged = width.Set(merged, p, undominated)
		}
	}
	return append(dst, solver.Out[uint64]{State: merged, Cost: -dup})
}

// Accept admits root states with no vertex still awaiting domination.
func (dpb domProblem) Accept(_ int, bag []int, s uint64) bool {
	for p := range bag {
		if width.At(s, p) == undominated {
			return false
		}
	}
	return true
}

// MinDominatingSet returns the size of a minimum dominating set of g.
// It evaluates the tropical semiring without provenance: the size needs
// no witness.
func MinDominatingSet(g *graph.Graph) (int, error) {
	if g.N() == 0 {
		return 0, nil
	}
	nice, err := decompose.NiceGraph(g)
	if err != nil {
		return 0, err
	}
	opt, err := solver.Minimum(context.Background(), nice, domProblem{g})
	if err == nil && opt == nil {
		err = fmt.Errorf("domset: no feasible state at the root")
	}
	if err != nil {
		return 0, err
	}
	return opt.Value, nil
}

// DominatingSet returns a minimum dominating set itself, by walking the
// argmin derivation of the tropical-semiring tables.
func DominatingSet(g *graph.Graph) ([]int, error) {
	if g.N() == 0 {
		return nil, nil
	}
	der, err := optimize(g)
	if err != nil {
		return nil, err
	}
	return der.Members(g.N(), func(s uint64, p int) bool { return width.At(s, p) == inSet })
}

// optimize runs the tropical semiring with provenance over a min-fill
// nice decomposition of g, for DominatingSet's witness walk.
func optimize(g *graph.Graph) (*solver.Derivation[uint64, int], error) {
	nice, err := decompose.NiceGraph(g)
	if err != nil {
		return nil, err
	}
	der, err := solver.Optimize(context.Background(), nice, domProblem{g})
	if err == nil && der == nil {
		err = fmt.Errorf("domset: no feasible state at the root")
	}
	return der, err
}

// ErrTooLarge reports that the exponential oracle was asked about a
// graph beyond its hard size limit; test with errors.Is.
var ErrTooLarge = errors.New("domset: graph too large for brute force")

// BruteForce is the exponential oracle for tests; beyond 22 vertices it
// returns ErrTooLarge.
func BruteForce(g *graph.Graph) (int, error) {
	n := g.N()
	if n > 22 {
		return 0, fmt.Errorf("%w: limited to 22 vertices, got %d", ErrTooLarge, n)
	}
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
		for v := 0; v < n && ok; v++ {
			if mask>>uint(v)&1 == 1 {
				continue
			}
			dominatedV := false
			g.Neighbors(v).ForEach(func(u int) bool {
				if mask>>uint(u)&1 == 1 {
					dominatedV = true
					return false
				}
				return true
			})
			if !dominatedV {
				ok = false
			}
		}
		if ok {
			best = size
		}
	}
	return best, nil
}
