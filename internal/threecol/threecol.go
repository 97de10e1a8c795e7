// Package threecol implements the paper's 3-Colorability algorithm
// (Section 5.1, Figure 5) for graphs of bounded treewidth: a dynamic
// program over a nice tree decomposition whose states are the partitions
// (R, G, B) of the current bag — the solve(s, R, G, B) predicate of the
// figure — plus a brute-force baseline, witness extraction, and a full
// grounding to a propositional Horn program. The transitions are a
// solver.Problem instance (problem.go) evaluated by the generic semiring
// engine, which also powers k-coloring and exact counting (kcolor.go).
package threecol

import (
	"context"
	"fmt"

	"repro/internal/decompose"
	"repro/internal/graph"
	"repro/internal/horn"
	"repro/internal/solver"
	"repro/internal/tree"
)

// Figure5 is the paper's datalog program for reference. Its set-valued
// arguments (R, G, B range over subsets of the bag) make it a succinct
// representation of a monadic program with predicates solve⟨r1,r2,r3⟩(s);
// this package executes it as the equivalent dynamic program.
const Figure5 = `
% leaf node.
solve(S, R, G, B) :- leaf(S), bag(S, X), partition(S, R, G, B),
                     allowed(S, R), allowed(S, G), allowed(S, B).
% element introduction node.
solve(S, R+{V}, G, B) :- bag(S, X+{V}), child1(S1, S), bag(S1, X),
                         solve(S1, R, G, B), allowed(S, R+{V}).
solve(S, R, G+{V}, B) :- bag(S, X+{V}), child1(S1, S), bag(S1, X),
                         solve(S1, R, G, B), allowed(S, G+{V}).
solve(S, R, G, B+{V}) :- bag(S, X+{V}), child1(S1, S), bag(S1, X),
                         solve(S1, R, G, B), allowed(S, B+{V}).
% element removal node.
solve(S, R, G, B) :- bag(S, X), child1(S1, S), bag(S1, X+{V}), solve(S1, R+{V}, G, B).
solve(S, R, G, B) :- bag(S, X), child1(S1, S), bag(S1, X+{V}), solve(S1, R, G+{V}, B).
solve(S, R, G, B) :- bag(S, X), child1(S1, S), bag(S1, X+{V}), solve(S1, R, G, B+{V}).
% branch node.
solve(S, R, G, B) :- bag(S, X), child1(S1, S), child2(S2, S), bag(S1, X), bag(S2, X),
                     solve(S1, R, G, B), solve(S2, R, G, B).
% result (at the root node).
success :- root(S), solve(S, R, G, B).
`

// Instance bundles a graph with a nice tree decomposition.
type Instance struct {
	g    *graph.Graph
	nice *tree.Decomposition
}

// NewInstance decomposes g with the min-fill heuristic and normalizes to
// the nice form of Section 5.
func NewInstance(g *graph.Graph) (*Instance, error) {
	return NewInstanceCtx(context.Background(), g)
}

// NewInstanceCtx is NewInstance with cancellation support: the
// decomposition and normalization stages poll ctx and context errors
// come back wrapped in a *stage.Error.
func NewInstanceCtx(ctx context.Context, g *graph.Graph) (*Instance, error) {
	d, err := decompose.GraphCtx(ctx, g, decompose.MinFill)
	if err != nil {
		return nil, err
	}
	if err := d.ValidateGraph(g); err != nil {
		return nil, fmt.Errorf("threecol: %w", err)
	}
	nice, err := tree.NormalizeNiceCtx(ctx, d, tree.NiceOptions{})
	if err != nil {
		return nil, err
	}
	return &Instance{g: g, nice: nice}, nil
}

// NewInstanceWithDecomposition uses a caller-provided raw decomposition.
func NewInstanceWithDecomposition(g *graph.Graph, d *tree.Decomposition) (*Instance, error) {
	if err := d.ValidateGraph(g); err != nil {
		return nil, fmt.Errorf("threecol: %w", err)
	}
	nice, err := tree.NormalizeNice(d, tree.NiceOptions{})
	if err != nil {
		return nil, err
	}
	return &Instance{g: g, nice: nice}, nil
}

// Width returns the decomposition width.
func (in *Instance) Width() int { return in.nice.Width() }

// Decide reports whether the graph is 3-colorable (the success rule of
// Figure 5: any state surviving at the root).
func (in *Instance) Decide() (bool, error) {
	return in.DecideCtx(context.Background())
}

// DecideCtx is Decide with cancellation support (see solver.Up).
func (in *Instance) DecideCtx(ctx context.Context) (bool, error) {
	return solver.Decide(ctx, in.nice, newColorProblem(in.g, 3))
}

// Coloring returns a proper 3-coloring (vertex → 0/1/2) if one exists, by
// walking the provenance of an accepting root state — the witness
// extension the paper lists under future extensions of the decision
// program.
func (in *Instance) Coloring() ([]int, bool, error) {
	return in.ColoringCtx(context.Background())
}

// ColoringCtx is Coloring with cancellation support (see solver.Up).
func (in *Instance) ColoringCtx(ctx context.Context) ([]int, bool, error) {
	cp := newColorProblem(in.g, 3)
	der, err := solver.Witness(ctx, in.nice, cp)
	if err != nil || der == nil {
		return nil, false, err
	}
	bags, err := in.nice.SortedBags()
	if err != nil {
		return nil, false, fmt.Errorf("threecol: %w", err)
	}
	colors := make([]int, in.g.N())
	for i := range colors {
		colors[i] = -1
	}
	err = der.Walk(func(v int, s uint64) error {
		for p, e := range bags[v] {
			colors[e] = int(cp.w.At(s, p))
		}
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	// Isolated vertices may be uncolored only if they appear in no bag;
	// a valid decomposition covers every vertex, so color any stragglers
	// defensively.
	for i := range colors {
		if colors[i] < 0 {
			colors[i] = 0
		}
	}
	return colors, true, nil
}

// GroundDecide decides 3-colorability by full grounding of the Figure 5
// program: one propositional variable per (node, bag coloring) pair, one
// Horn clause per rule instance, solved by unit resolution. The baseline
// of experiment E7's architecture comparison.
func (in *Instance) GroundDecide() (bool, error) {
	prog := &horn.Program{}
	varID := map[string]int{}
	id := func(node int, s uint64) int {
		k := fmt.Sprintf("%d/%d", node, s)
		if v, ok := varID[k]; ok {
			return v
		}
		v := len(varID)
		varID[k] = v
		return v
	}
	bags, err := in.nice.SortedBags()
	if err != nil {
		return false, err
	}
	cp := newColorProblem(in.g, 3)
	var results []solver.Out[uint64]
	for _, v := range in.nice.PostOrder() {
		n := in.nice.Nodes[v]
		bag := bags[v]
		switch n.Kind {
		case tree.KindLeaf:
			results = cp.Leaf(results[:0], v, bag)
			for _, o := range results {
				prog.AddClause(id(v, o.State))
			}
		case tree.KindIntroduce, tree.KindForget, tree.KindCopy:
			child := n.Children[0]
			for _, cs := range cp.allStates(bags[child]) {
				switch n.Kind {
				case tree.KindIntroduce:
					results = cp.Introduce(results[:0], v, bag, n.Elem, cs)
				case tree.KindForget:
					results = cp.Forget(results[:0], v, bag, n.Elem, cs)
				default:
					results = append(results[:0], solver.Out[uint64]{State: cs})
				}
				for _, o := range results {
					prog.AddClause(id(v, o.State), id(child, cs))
				}
			}
		case tree.KindBranch:
			for _, s := range cp.allStates(bag) {
				prog.AddClause(id(v, s), id(n.Children[0], s), id(n.Children[1], s))
			}
		default:
			return false, fmt.Errorf("threecol: unexpected node kind %v", n.Kind)
		}
	}
	success := len(varID)
	varID["success"] = success
	for _, s := range cp.allStates(bags[in.nice.Root]) {
		prog.AddClause(success, id(in.nice.Root, s))
	}
	truth := prog.Solve()
	return truth[success], nil
}

// Decide is a convenience wrapper.
func Decide(g *graph.Graph) (bool, error) {
	in, err := NewInstance(g)
	if err != nil {
		return false, err
	}
	return in.Decide()
}

// BruteForce decides 3-colorability by backtracking over all colorings;
// the exponential reference oracle.
func BruteForce(g *graph.Graph) bool {
	n := g.N()
	colors := make([]int, n)
	var rec func(v int) bool
	rec = func(v int) bool {
		if v == n {
			return true
		}
		for c := 0; c < 3; c++ {
			ok := true
			g.Neighbors(v).ForEach(func(u int) bool {
				if u < v && colors[u] == c {
					ok = false
					return false
				}
				return true
			})
			if ok {
				colors[v] = c
				if rec(v + 1) {
					return true
				}
			}
		}
		return false
	}
	return rec(0)
}
