package threecol

// The single problem-algebra instance behind this package: proper
// k-coloring as a solver.Problem. threecol.Decide runs it with k=3 in
// the decision semiring (Figure 5 verbatim), KColorable with arbitrary
// k, CountColorings in the counting semiring, and Coloring extracts a
// witness from the same tables — one set of transitions for every mode,
// where the seed had three hand-written near-copies (threecol handlers,
// kcolor handlers, and the counting pass) that had already drifted in
// leaf enumeration order and state packing.

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/solver"
)

// MaxColors bounds k: wide states pack 4 bits per bag position.
const MaxColors = 16

// colorProblem is proper k-coloring over the sorted-bag position
// states of Figure 5: a state assigns each bag position a color,
// packed w bits per position (2 bits while k ≤ 4 — the Figure 5
// layout, which keeps 3-coloring states byte-compatible with the seed
// and supports bags of up to 32 positions — 4 bits beyond).
type colorProblem struct {
	g *graph.Graph
	k int
	w solver.Width
}

// Problem returns the k-coloring algebra over g as a generic
// solver.Problem, for callers (like the decision service) that run
// named problems through the session Solve* helpers on an existing
// decomposition. Vertex IDs of g must match the decomposition's bag
// elements, and k must lie in 1..MaxColors: larger colors overflow the
// packed states.
func Problem(g *graph.Graph, k int) solver.Problem[uint64] {
	return newColorProblem(g, k)
}

func newColorProblem(g *graph.Graph, k int) colorProblem {
	w := solver.Width(4)
	if k <= 4 {
		w = 2
	}
	return colorProblem{g: g, k: k, w: w}
}

func (cp colorProblem) Name() string { return fmt.Sprintf("coloring(k=%d)", cp.k) }

// allowed reports whether no edge inside the bag is monochromatic — the
// allowed predicate of Figure 5 applied to all color classes at once.
func (cp colorProblem) allowed(bag []int, s uint64) bool {
	for i := 0; i < len(bag); i++ {
		for j := i + 1; j < len(bag); j++ {
			if cp.g.HasEdge(bag[i], bag[j]) && cp.w.At(s, i) == cp.w.At(s, j) {
				return false
			}
		}
	}
	return true
}

// numStates is the number of position-colorings of an n-position bag:
// k^n.
func (cp colorProblem) numStates(n int) int {
	total := 1
	for i := 0; i < n; i++ {
		total *= cp.k
	}
	return total
}

// state decodes the combo-th position-coloring of an n-position bag in
// the canonical order: combos count up in base k with position 0
// varying fastest.
func (cp colorProblem) state(combo, n int) uint64 {
	var s uint64
	for p := 0; p < n; p++ {
		s |= uint64(combo%cp.k) << (uint(p) * uint(cp.w))
		combo /= cp.k
	}
	return s
}

// allStates enumerates every position-coloring of the bag, allowed or
// not, in the canonical order. GroundDecide needs the unfiltered
// enumeration.
func (cp colorProblem) allStates(bag []int) []uint64 {
	out := make([]uint64, cp.numStates(len(bag)))
	for combo := range out {
		out[combo] = cp.state(combo, len(bag))
	}
	return out
}

// Leaf appends the proper position-colorings of a leaf bag.
func (cp colorProblem) Leaf(dst []solver.Out[uint64], _ int, bag []int) []solver.Out[uint64] {
	for combo, total := 0, cp.numStates(len(bag)); combo < total; combo++ {
		if s := cp.state(combo, len(bag)); cp.allowed(bag, s) {
			dst = append(dst, solver.Out[uint64]{State: s})
		}
	}
	return dst
}

// Introduce appends every proper extension of a child state by a color
// for the new element.
func (cp colorProblem) Introduce(dst []solver.Out[uint64], _ int, bag []int, elem int, child uint64) []solver.Out[uint64] {
	p := solver.Position(bag, elem)
	for c := 0; c < cp.k; c++ {
		s := cp.w.Insert(child, p, uint64(c))
		if cp.allowed(bag, s) {
			dst = append(dst, solver.Out[uint64]{State: s})
		}
	}
	return dst
}

// Forget appends the child state with the forgotten element's position
// projected out.
func (cp colorProblem) Forget(dst []solver.Out[uint64], _ int, bag []int, elem int, child uint64) []solver.Out[uint64] {
	return append(dst, solver.Out[uint64]{State: cp.w.Drop(child, solver.Rank(bag, elem))})
}

// Join requires the two subtrees to agree on the bag coloring.
func (cp colorProblem) Join(dst []solver.Out[uint64], _ int, _ []int, s1, s2 uint64) []solver.Out[uint64] {
	if s1 == s2 {
		dst = append(dst, solver.Out[uint64]{State: s1})
	}
	return dst
}

// Accept: every root state is a full solution (the success rule of
// Figure 5 fires on any surviving state).
func (cp colorProblem) Accept(int, []int, uint64) bool { return true }
