package solver

import (
	"context"
	"fmt"
	"math/big"

	"repro/internal/faultinject"
	"repro/internal/stage"
	"repro/internal/tree"
)

// Mode names an evaluation mode, for session memoization keys and
// diagnostics. Each mode is a (semiring, root aggregation) pair.
type Mode string

const (
	// ModeDecide asks whether any accepting root state is derivable.
	ModeDecide Mode = "decide"
	// ModeCount asks for the exact number of solutions.
	ModeCount Mode = "count"
	// ModeOptimize asks for the minimum cost; Optimize adds an argmin
	// witness, Minimum does not.
	ModeOptimize Mode = "optimize"
)

// Decide reports whether the problem has a solution: it evaluates the
// decision semiring bottom-up and scans the root table for an accepting
// state. Unlike Witness it skips provenance tracking — the yes/no
// answer needs no derivation.
func Decide[S comparable](ctx context.Context, d *tree.Decomposition, p Problem[S]) (bool, error) {
	tables, err := upWith(ctx, d, p, Decision{}, false)
	if err != nil {
		return false, err
	}
	bags, err := d.SortedBags()
	if err != nil {
		return false, stage.Wrap(stage.Solver, err)
	}
	root, rootBag := d.Root, bags[d.Root]
	for _, s := range tables[root].Order {
		if p.Accept(root, rootBag, s) {
			return true, nil
		}
	}
	return false, nil
}

// Witness is Decide with a derivation: it returns a walkable derivation
// of the first accepting root state (in the deterministic table order),
// or nil if the problem has no solution.
func Witness[S comparable](ctx context.Context, d *tree.Decomposition, p Problem[S]) (*Derivation[S, bool], error) {
	tables, err := Up(ctx, d, p, Decision{})
	if err != nil {
		return nil, err
	}
	bags, err := d.SortedBags()
	if err != nil {
		return nil, stage.Wrap(stage.Solver, err)
	}
	root, rootBag := d.Root, bags[d.Root]
	for _, s := range tables[root].Order {
		if p.Accept(root, rootBag, s) {
			return &Derivation[S, bool]{Root: s, Value: true, d: d, tables: tables}, nil
		}
	}
	return nil, nil
}

// Count returns the exact number of solutions: the sum, over accepting
// root states, of the number of distinct derivations, evaluated in the
// big-int counting semiring.
func Count[S comparable](ctx context.Context, d *tree.Decomposition, p Problem[S]) (*big.Int, error) {
	tables, err := upWith(ctx, d, p, Counting{}, false)
	if err != nil {
		return nil, err
	}
	bags, err := d.SortedBags()
	if err != nil {
		return nil, stage.Wrap(stage.Solver, err)
	}
	root, rootBag := d.Root, bags[d.Root]
	total := new(big.Int)
	rt := &tables[root]
	for i, s := range rt.Order {
		if p.Accept(root, rootBag, s) {
			total.Add(total, rt.Vals[i])
		}
	}
	return total, nil
}

// Optimum is the value of a minimum-cost solution without its
// derivation: what Minimum returns, and all an optimization query
// needs when no witness is asked for.
type Optimum struct {
	Value int
}

// Minimum returns the minimum cost of a solution, or nil if no
// accepting root state is derivable (the problem is infeasible). It is
// to Optimize what Decide is to Witness: the same tropical evaluation,
// without provenance, so the tables can be dropped as soon as the root
// is scanned.
func Minimum[S comparable](ctx context.Context, d *tree.Decomposition, p Problem[S]) (*Optimum, error) {
	tables, err := upWith(ctx, d, p, MinCost{}, false)
	if err != nil {
		return nil, err
	}
	best, err := bestRoot(d, p, tables)
	if err != nil || best < 0 {
		return nil, err
	}
	return &Optimum{Value: tables[d.Root].Vals[best]}, nil
}

// Optimize returns a minimum-cost solution: the tropical semiring's
// value at the best accepting root state, with a walkable argmin
// derivation. It returns nil if no accepting root state is derivable
// (the problem is infeasible). Ties keep the earliest state in the
// deterministic table order, so the witness is identical on every run.
func Optimize[S comparable](ctx context.Context, d *tree.Decomposition, p Problem[S]) (*Derivation[S, int], error) {
	tables, err := Up(ctx, d, p, MinCost{})
	if err != nil {
		return nil, err
	}
	best, err := bestRoot(d, p, tables)
	if err != nil || best < 0 {
		return nil, err
	}
	rt := &tables[d.Root]
	return &Derivation[S, int]{Root: rt.Order[best], Value: rt.Vals[best], d: d, tables: tables}, nil
}

// bestRoot returns the position in the root table's Order of the
// cheapest accepting state — the earliest on ties — or -1 if no root
// state is accepting.
func bestRoot[S comparable](d *tree.Decomposition, p Problem[S], tables Tables[S, int]) (int, error) {
	bags, err := d.SortedBags()
	if err != nil {
		return -1, stage.Wrap(stage.Solver, err)
	}
	root, rootBag := d.Root, bags[d.Root]
	rt := &tables[root]
	best := -1
	for i, s := range rt.Order {
		if !p.Accept(root, rootBag, s) {
			continue
		}
		if best < 0 || rt.Vals[i] < rt.Vals[best] {
			best = i
		}
	}
	return best, nil
}

// Derivation is one complete derivation tree rooted at an accepting
// root state, reconstructed lazily from the bottom-up tables'
// provenance. Value is the state's accumulated semiring value (true for
// decision, the minimum cost for optimization).
type Derivation[S comparable, V any] struct {
	Root  S
	Value V

	d      *tree.Decomposition
	tables Tables[S, V]
}

// Walk visits every (node, state) pair of the derivation, parents
// before children, following each table's preferred provenance. The
// visit callback receives the node ID (bags are available via
// SortedBags) and the state the derivation assigns there.
func (dv *Derivation[S, V]) Walk(visit func(node int, s S) error) error {
	return WalkProv(dv.d, dv.tables, dv.d.Root, dv.Root, visit)
}

// Members returns, in increasing order, the elements in [0, n) that the
// derivation selects: e is selected when some node of the walk has e
// at position pos of its sorted bag and in(s, pos) holds for the state
// s assigned there. It is the one walk behind the set-valued witnesses
// (a cover, a dominating set, an independent set).
func (dv *Derivation[S, V]) Members(n int, in func(s S, pos int) bool) ([]int, error) {
	bags, err := dv.d.SortedBags()
	if err != nil {
		return nil, stage.Wrap(stage.Solver, fmt.Errorf("solver: %w", err))
	}
	selected := make([]bool, n)
	err = dv.Walk(func(v int, s S) error {
		for pos, e := range bags[v] {
			if in(s, pos) {
				selected[e] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var set []int
	for e, ok := range selected {
		if ok {
			set = append(set, e)
		}
	}
	return set, nil
}

// WalkProv walks the preferred derivation of state s at node v through
// bottom-up tables, visiting parents before children. It is the shared
// witness-reconstruction core behind Derivation.Walk and the problem
// packages' typed witness accessors (coloring assignments, cover sets,
// …).
func WalkProv[S comparable, V any](d *tree.Decomposition, tables Tables[S, V], v int, s S, visit func(node int, s S) error) error {
	if err := faultinject.Check("solver.witness"); err != nil {
		return stage.Wrap(stage.Solver, err)
	}
	if err := visit(v, s); err != nil {
		return err
	}
	prov, ok := tables[v].Prov(s)
	if !ok {
		return stage.Wrap(stage.Solver, fmt.Errorf("solver: derivation walk reached a state missing from the table at node %d (tables from a different run?)", v))
	}
	n := &d.Nodes[v]
	if prov.First < 0 {
		return nil // leaf state
	}
	c1 := n.Children[0]
	if err := WalkProv(d, tables, c1, tables[c1].Order[prov.First], visit); err != nil {
		return err
	}
	if prov.Second >= 0 {
		c2 := n.Children[1]
		return WalkProv(d, tables, c2, tables[c2].Order[prov.Second], visit)
	}
	return nil
}
