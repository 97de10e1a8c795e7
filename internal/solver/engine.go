package solver

import (
	"context"
	"fmt"

	"repro/internal/faultinject"
	"repro/internal/stage"
	"repro/internal/tree"
)

// Prov records one derivation of a state, for witness extraction: the
// positions in the child tables' Order slices of the states it was
// derived from, or -1 (leaf states have neither; unary and copy
// transitions have no Second). Indices rather than pointers keep the
// provenance slices pointer-free — the decision-mode tables are then
// entirely noscan, which the garbage collector rewards on the hot
// Figure 5/Figure 6 paths.
type Prov struct {
	First  int32
	Second int32
}

// leafProv marks a state with no derivation inputs.
var leafProv = Prov{First: -1, Second: -1}

// Table holds the states derived at one node. Order lists them in
// first-derivation order — a deterministic artifact of the run used for
// all downstream iteration — and Vals/Provs are aligned with it: the
// semiring value accumulated over all derivations of Order[i] is
// Vals[i], and Provs[i] is the provenance of the preferred derivation
// (the first, unless the semiring's Plus replaced it). The aligned-slice
// layout keeps the evaluator's read path free of map lookups; the index
// map exists only to deduplicate on insert.
type Table[S comparable, V any] struct {
	Order []S
	Vals  []V
	Provs []Prov

	index map[S]int32
}

// Len returns the number of states at the node.
func (t Table[S, V]) Len() int { return len(t.Order) }

// Has reports whether the state was derived at the node.
func (t Table[S, V]) Has(s S) bool {
	_, ok := t.index[s]
	return ok
}

// Value returns the accumulated semiring value of a state.
func (t Table[S, V]) Value(s S) (V, bool) {
	i, ok := t.index[s]
	if !ok {
		var zero V
		return zero, false
	}
	return t.Vals[i], true
}

// Prov returns the preferred provenance of a state. Tables evaluated
// without provenance tracking (Decide, Count, Minimum) report false.
func (t Table[S, V]) Prov(s S) (Prov, bool) {
	i, ok := t.index[s]
	if !ok || int(i) >= len(t.Provs) {
		return Prov{}, false
	}
	return t.Provs[i], true
}

func (t *Table[S, V]) init(capacity int, trackProv bool) {
	t.Order = make([]S, 0, capacity)
	t.Vals = make([]V, 0, capacity)
	if trackProv {
		t.Provs = make([]Prov, 0, capacity)
	}
	t.index = make(map[S]int32, capacity)
}

func (t *Table[S, V]) add(r Semiring[V], s S, v V, p Prov) {
	if i, ok := t.index[s]; ok {
		nv, replace := r.Plus(t.Vals[i], v)
		t.Vals[i] = nv
		if replace && t.Provs != nil {
			t.Provs[i] = p
		}
		return
	}
	t.index[s] = int32(len(t.Order))
	t.Order = append(t.Order, s)
	t.Vals = append(t.Vals, v)
	if t.Provs != nil { // nil when the run skips provenance (Decide, Count, Minimum)
		t.Provs = append(t.Provs, p)
	}
}

// Tables holds the result of a full run: one Table per node.
type Tables[S comparable, V any] []Table[S, V]

// chargeEvery is how many outer-loop iterations a node accumulates
// between budget checks inside the join double loop, bounding the
// overshoot past MaxTableEntries to O(chargeEvery) entries per
// in-flight node, so a budget violation aborts in bounded memory.
const chargeEvery = 1024

// Up evaluates the problem bottom-up over a nice decomposition in the
// given semiring, producing one table per node. The run rides the nice
// form's plan and its post-order schedule: each node is computed
// exactly once, from complete inputs, iterating child tables in their
// deterministic Order. Errors are stage-tagged stage.Solver;
// cancellation, budget and panic containment follow the
// tree.Decomposition.Schedule contract.
func Up[S comparable, V any](ctx context.Context, d *tree.Decomposition, p Problem[S], r Semiring[V]) (Tables[S, V], error) {
	return upWith(ctx, d, p, r, true)
}

// upWith is Up with provenance tracking optional: the scalar front-ends
// (Decide, Count, Minimum) never read Provs, so they skip allocating
// and filling one slice per node.
func upWith[S comparable, V any](ctx context.Context, d *tree.Decomposition, p Problem[S], r Semiring[V], trackProv bool) (Tables[S, V], error) {
	bags, err := d.SortedBags()
	if err != nil {
		return nil, stage.Wrap(stage.Solver, fmt.Errorf("solver: %w", err))
	}
	b := stage.BudgetFrom(ctx)
	tables := make(Tables[S, V], d.Len())
	err = d.Schedule(ctx, false, func(v int) error {
		return upNode(d, bags, p, r, b, tables, trackProv, v)
	})
	if err != nil {
		return nil, stage.Wrap(stage.Solver, err)
	}
	return tables, nil
}

func upNode[S comparable, V any](d *tree.Decomposition, bags [][]int, p Problem[S], r Semiring[V], b *stage.Budget, tables Tables[S, V], trackProv bool, v int) error {
	n := &d.Nodes[v]
	bag := bags[v]
	var outs []Out[S] // the node's transition buffer, reused per child state
	var t Table[S, V]
	switch n.Kind {
	case tree.KindLeaf:
		outs = p.Leaf(outs, v, bag)
		t.init(len(outs), trackProv)
		for _, o := range outs {
			t.add(r, o.State, r.Weight(o.Cost), leafProv)
		}
	case tree.KindIntroduce, tree.KindForget:
		if err := checkUnary(n.Kind); err != nil {
			return err
		}
		child := &tables[n.Children[0]]
		t.init(len(child.Order), trackProv)
		intro := n.Kind == tree.KindIntroduce
		for i := range child.Order {
			if intro {
				outs = p.Introduce(outs[:0], v, bag, n.Elem, child.Order[i])
			} else {
				outs = p.Forget(outs[:0], v, bag, n.Elem, child.Order[i])
			}
			cv := child.Vals[i]
			for _, o := range outs {
				t.add(r, o.State, r.Extend(cv, o.Cost), Prov{First: int32(i), Second: -1})
			}
			if i%chargeEvery == chargeEvery-1 {
				if err := b.CheckTableEntries(t.Len()); err != nil {
					return err
				}
			}
		}
	case tree.KindCopy:
		child := &tables[n.Children[0]]
		t.init(len(child.Order), trackProv)
		for i := range child.Order {
			t.add(r, child.Order[i], r.Extend(child.Vals[i], 0), Prov{First: int32(i), Second: -1})
		}
	case tree.KindBranch:
		if err := faultinject.Check("solver.join"); err != nil {
			return err
		}
		c1, c2 := &tables[n.Children[0]], &tables[n.Children[1]]
		t.init(min(len(c1.Order), len(c2.Order)), trackProv)
		for i := range c1.Order {
			s1 := c1.Order[i]
			v1 := c1.Vals[i]
			for j := range c2.Order {
				outs = p.Join(outs[:0], v, bag, s1, c2.Order[j])
				for _, o := range outs {
					val := r.Merge(v1, c2.Vals[j], o.Cost)
					t.add(r, o.State, val, Prov{First: int32(i), Second: int32(j)})
				}
			}
			if i%chargeEvery == chargeEvery-1 {
				if err := b.CheckTableEntries(t.Len()); err != nil {
					return err
				}
			}
		}
	default:
		// Unreachable: SortedBags admits only nice decompositions.
		panic(fmt.Sprintf("solver: node %d has kind %v", v, n.Kind))
	}
	if err := b.AddTableEntries(t.Len()); err != nil {
		return err
	}
	tables[v] = t
	return nil
}

// checkUnary is the fault-injection hook for the unary transitions:
// "solver.introduce" fires mid-pass at introduce nodes, "solver.forget"
// at forget nodes. One atomic load each when disarmed.
func checkUnary(k tree.Kind) error {
	if k == tree.KindIntroduce {
		return faultinject.Check("solver.introduce")
	}
	return faultinject.Check("solver.forget")
}

// Down evaluates the top-down pass (the solve↓ predicate of Section
// 5.3) given the bottom-up tables, by the role-swapped transitions of
// Lemma 3.6: walking down through an introduce node applies Forget,
// walking down through a forget node applies Introduce, and walking
// down past a branch merges the parent's top-down state with the
// sibling's bottom-up states via Join. At the root, Leaf enumerates the
// base states.
func Down[S comparable, V any](ctx context.Context, d *tree.Decomposition, p Problem[S], r Semiring[V], up Tables[S, V]) (Tables[S, V], error) {
	bags, err := d.SortedBags()
	if err != nil {
		return nil, stage.Wrap(stage.Solver, fmt.Errorf("solver: %w", err))
	}
	if len(up) != d.Len() {
		return nil, stage.Wrap(stage.Solver, fmt.Errorf("solver: bottom-up tables have %d nodes, want %d", len(up), d.Len()))
	}
	b := stage.BudgetFrom(ctx)
	tables := make(Tables[S, V], d.Len())
	err = d.Schedule(ctx, true, func(v int) error {
		return downNode(d, bags, p, r, b, up, tables, v)
	})
	if err != nil {
		return nil, stage.Wrap(stage.Solver, err)
	}
	return tables, nil
}

func downNode[S comparable, V any](d *tree.Decomposition, bags [][]int, p Problem[S], r Semiring[V], b *stage.Budget, up, tables Tables[S, V], v int) error {
	n := &d.Nodes[v]
	bag := bags[v]
	var outs []Out[S] // the node's transition buffer, reused per parent state
	var t Table[S, V]
	if n.Parent < 0 {
		outs = p.Leaf(outs, v, bag)
		t.init(len(outs), true)
		for _, o := range outs {
			t.add(r, o.State, r.Weight(o.Cost), leafProv)
		}
		if err := b.AddTableEntries(t.Len()); err != nil {
			return err
		}
		tables[v] = t
		return nil
	}
	pn := &d.Nodes[n.Parent]
	parent := &tables[n.Parent]
	t.init(len(parent.Order), true)
	switch pn.Kind {
	case tree.KindIntroduce, tree.KindForget:
		// Role swap: the parent's introduce leaves the downward
		// interface (Forget at v), the parent's forget re-enters it
		// (Introduce at v).
		swapped := tree.KindForget
		if pn.Kind == tree.KindForget {
			swapped = tree.KindIntroduce
		}
		if err := checkUnary(swapped); err != nil {
			return err
		}
		forget := swapped == tree.KindForget
		for i := range parent.Order {
			if forget {
				outs = p.Forget(outs[:0], v, bag, pn.Elem, parent.Order[i])
			} else {
				outs = p.Introduce(outs[:0], v, bag, pn.Elem, parent.Order[i])
			}
			pv := parent.Vals[i]
			for _, o := range outs {
				t.add(r, o.State, r.Extend(pv, o.Cost), Prov{First: int32(i), Second: -1})
			}
		}
	case tree.KindCopy:
		for i := range parent.Order {
			t.add(r, parent.Order[i], r.Extend(parent.Vals[i], 0), Prov{First: int32(i), Second: -1})
		}
	case tree.KindBranch:
		if err := faultinject.Check("solver.join"); err != nil {
			return err
		}
		sib := pn.Children[0]
		if sib == v {
			sib = pn.Children[1]
		}
		sibT := &up[sib]
		for i := range parent.Order {
			ps := parent.Order[i]
			pv := parent.Vals[i]
			for j := range sibT.Order {
				outs = p.Join(outs[:0], v, bag, ps, sibT.Order[j])
				for _, o := range outs {
					val := r.Merge(pv, sibT.Vals[j], o.Cost)
					t.add(r, o.State, val, Prov{First: int32(i), Second: int32(j)})
				}
			}
			if i%chargeEvery == chargeEvery-1 {
				if err := b.CheckTableEntries(t.Len()); err != nil {
					return err
				}
			}
		}
	default:
		panic(fmt.Sprintf("solver: parent %d of node %d has kind %v", n.Parent, v, pn.Kind))
	}
	if err := b.AddTableEntries(t.Len()); err != nil {
		return err
	}
	tables[v] = t
	return nil
}
