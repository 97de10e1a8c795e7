// Package wis implements maximum-weight independent set on
// bounded-treewidth graphs — the first workload written directly
// against the solver algebra rather than migrated to it. The problem
// is one solver.Problem instance; maximization rides the tropical
// (min-cost) semiring by negating vertex weights, so the same three
// evaluation modes are available for free: Decide (is any independent
// set expressible — trivially yes), Count (how many independent sets),
// Optimize (the heaviest one, with a witness).
package wis

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/big"

	"repro/internal/decompose"
	"repro/internal/graph"
	"repro/internal/solver"
)

// width packs one bit per sorted-bag position: the selected bitmask.
const width = solver.Width(1)

// wisProblem is the independent-set algebra: states are selection
// bitmasks over the sorted bag, independence is enforced edge-locally
// (every edge of the graph appears inside some bag), and costs are the
// negated weights of selected vertices, paid exactly once (on
// introduction or in a leaf; joins refund the bag overlap both
// children paid).
type wisProblem struct {
	g *graph.Graph
	w []int // per-vertex weight; len == g.N()
}

// Name carries an FNV-64 hash of the weights: two weight vectors over
// one graph have different optima, so they must not share a session's
// memoized outcome.
func (ip wisProblem) Name() string {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range ip.w {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	return fmt.Sprintf("weighted-independent-set(w=%016x)", h.Sum64())
}

// independent reports whether no bag-internal edge has both endpoints
// selected.
func (ip wisProblem) independent(bag []int, m uint64) bool {
	for i := 0; i < len(bag); i++ {
		if m>>uint(i)&1 == 0 {
			continue
		}
		for j := i + 1; j < len(bag); j++ {
			if m>>uint(j)&1 == 1 && ip.g.HasEdge(bag[i], bag[j]) {
				return false
			}
		}
	}
	return true
}

func (ip wisProblem) Leaf(dst []solver.Out[uint64], _ int, bag []int) []solver.Out[uint64] {
	for m := uint64(0); m < 1<<uint(len(bag)); m++ {
		if ip.independent(bag, m) {
			cost := 0
			for p := range bag {
				if m>>uint(p)&1 == 1 {
					cost -= ip.w[bag[p]]
				}
			}
			dst = append(dst, solver.Out[uint64]{State: m, Cost: cost})
		}
	}
	return dst
}

func (ip wisProblem) Introduce(dst []solver.Out[uint64], _ int, bag []int, elem int, child uint64) []solver.Out[uint64] {
	p := solver.Position(bag, elem)
	dst = append(dst, solver.Out[uint64]{State: width.Insert(child, p, 0)})
	if m := width.Insert(child, p, 1); ip.independent(bag, m) {
		dst = append(dst, solver.Out[uint64]{State: m, Cost: -ip.w[elem]})
	}
	return dst
}

func (ip wisProblem) Forget(dst []solver.Out[uint64], _ int, bag []int, elem int, child uint64) []solver.Out[uint64] {
	return append(dst, solver.Out[uint64]{State: width.Drop(child, solver.Rank(bag, elem))})
}

func (ip wisProblem) Join(dst []solver.Out[uint64], _ int, bag []int, s1, s2 uint64) []solver.Out[uint64] {
	if s1 != s2 {
		return dst
	}
	// Both children paid (negative) weight for the bag's selected
	// vertices; refund one copy.
	dup := 0
	for p := range bag {
		if s1>>uint(p)&1 == 1 {
			dup += ip.w[bag[p]]
		}
	}
	return append(dst, solver.Out[uint64]{State: s1, Cost: dup})
}

// Accept: independence is enforced edge-locally throughout, so every
// surviving root state extends to an independent set.
func (ip wisProblem) Accept(int, []int, uint64) bool { return true }

// Problem returns the weighted-independent-set algebra over g as a
// generic solver.Problem, for callers (like the decision service) that
// run named problems through the session Solve* helpers on an existing
// decomposition. weights[v] is the weight of vertex v; nil means unit
// weights. Vertex IDs of g must match the decomposition's bag elements.
func Problem(g *graph.Graph, weights []int) (solver.Problem[uint64], error) {
	return problemFor(g, weights)
}

func problemFor(g *graph.Graph, weights []int) (wisProblem, error) {
	w := weights
	if w == nil {
		w = make([]int, g.N())
		for v := range w {
			w[v] = 1
		}
	} else if len(w) != g.N() {
		return wisProblem{}, fmt.Errorf("wis: %d weights for %d vertices", len(w), g.N())
	}
	return wisProblem{g: g, w: w}, nil
}

// MaxWeight returns the maximum total weight of an independent set of
// g. weights[v] is the weight of vertex v; nil means unit weights (so
// the result is the maximum independent set size). Negative weights
// are allowed — such vertices are simply never worth selecting, and
// the empty set (weight 0) is always available. The weight needs no
// witness, so the tropical semiring runs without provenance.
func MaxWeight(g *graph.Graph, weights []int) (int, error) {
	if g.N() == 0 {
		return 0, nil
	}
	p, err := problemFor(g, weights)
	if err != nil {
		return 0, err
	}
	nice, err := decompose.NiceGraph(g)
	if err != nil {
		return 0, err
	}
	opt, err := solver.Minimum(context.Background(), nice, p)
	if err != nil {
		return 0, err
	}
	if opt == nil {
		// Unreachable: the all-unselected state survives every node.
		return 0, fmt.Errorf("wis: no feasible state at the root")
	}
	return -opt.Value, nil
}

// MaxWeightSet returns a maximum-weight independent set itself, by
// walking the argmin derivation of the tropical-semiring tables
// (weights negated, so argmin = argmax).
func MaxWeightSet(g *graph.Graph, weights []int) ([]int, error) {
	if g.N() == 0 {
		return nil, nil
	}
	der, err := solve(g, weights)
	if err != nil {
		return nil, err
	}
	return der.Members(g.N(), func(s uint64, p int) bool { return width.At(s, p) == 1 })
}

// CountSets returns the number of independent sets of g (including the
// empty set), exactly.
func CountSets(g *graph.Graph) (*big.Int, error) {
	if g.N() == 0 {
		return big.NewInt(1), nil
	}
	nice, err := decompose.NiceGraph(g)
	if err != nil {
		return nil, err
	}
	p, err := problemFor(g, nil)
	if err != nil {
		return nil, err
	}
	return solver.Count(context.Background(), nice, p)
}

// solve runs the tropical semiring with provenance over a min-fill nice
// decomposition of g, for MaxWeightSet's witness walk.
func solve(g *graph.Graph, weights []int) (*solver.Derivation[uint64, int], error) {
	p, err := problemFor(g, weights)
	if err != nil {
		return nil, err
	}
	nice, err := decompose.NiceGraph(g)
	if err != nil {
		return nil, err
	}
	der, err := solver.Optimize(context.Background(), nice, p)
	if err != nil {
		return nil, err
	}
	if der == nil {
		// Unreachable: the all-unselected state survives every node.
		return nil, fmt.Errorf("wis: no feasible state at the root")
	}
	return der, nil
}

// ErrTooLarge reports that the exponential oracle was asked about a
// graph beyond its hard size limit; test with errors.Is.
var ErrTooLarge = errors.New("wis: graph too large for brute force")

// BruteForce is the exponential oracle for tests; beyond 22 vertices
// it returns ErrTooLarge. It returns the maximum weight and the number
// of independent sets.
func BruteForce(g *graph.Graph, weights []int) (best int, count uint64, err error) {
	n := g.N()
	if n > 22 {
		return 0, 0, fmt.Errorf("%w: limited to 22 vertices, got %d", ErrTooLarge, n)
	}
	w := weights
	if w == nil {
		w = make([]int, n)
		for v := range w {
			w[v] = 1
		}
	} else if len(w) != n {
		return 0, 0, fmt.Errorf("wis: %d weights for %d vertices", len(w), n)
	}
	edges := g.Edges()
	for mask := 0; mask < 1<<uint(n); mask++ {
		ok := true
		for _, e := range edges {
			if mask>>uint(e[0])&1 == 1 && mask>>uint(e[1])&1 == 1 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		count++
		weight := 0
		for v := 0; v < n; v++ {
			if mask>>uint(v)&1 == 1 {
				weight += w[v]
			}
		}
		if weight > best {
			best = weight
		}
	}
	return best, count, nil
}
