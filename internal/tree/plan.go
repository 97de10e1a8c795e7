package tree

import (
	"context"
	"slices"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/stage"
)

// plan is the precomputation shared by every SortedBags and Schedule
// call on one nice decomposition: the CheckNice verdict, every bag in
// sorted order and the post-order. It is built on first use and kept on
// the decomposition it describes, so a decide-then-witness pair, an
// Up-then-Down pass and repeated probes of one form share it, and it is
// collected with the form. It holds no pointer back to the
// decomposition.
type plan struct {
	niceErr error
	bags    [][]int // node → sorted bag: the node's own Bag when sorted
	post    []int   // children before parents
}

// planFor returns d's plan, building it on first use. Concurrent first
// callers may each build one, but all of them get the one that was
// stored first.
func (d *Decomposition) planFor() *plan {
	if p := d.plan.Load(); p != nil {
		return p
	}
	p := buildPlan(d)
	if !d.plan.CompareAndSwap(nil, p) {
		p = d.plan.Load()
	}
	return p
}

// dropPlan forgets d's plan; the tree's mutators call it. It is a
// plain store: an atomic one would move every decomposition a mutator
// touches to the heap, and editing d while another goroutine plans it
// is a caller error anyway.
func (d *Decomposition) dropPlan() { d.plan = atomic.Pointer[plan]{} }

func buildPlan(d *Decomposition) *plan {
	p := &plan{niceErr: CheckNice(d)}
	if p.niceErr != nil {
		return p
	}
	n := d.Len()
	p.bags = make([][]int, n)
	for v := 0; v < n; v++ {
		// NormalizeNice keeps every bag sorted, so its forms share their
		// bags with the plan; only a hand-built form pays for copies.
		if bag := d.Nodes[v].Bag; slices.IsSorted(bag) {
			p.bags[v] = bag
		} else {
			p.bags[v] = sortedBag(bag)
		}
	}
	p.post = d.PostOrder()
	return p
}

// SortedBags returns every bag of a nice decomposition in sorted order,
// indexed by node ID: the node's own Bag when it is sorted, as
// NormalizeNice's always are, and a sorted copy otherwise. It fails with
// the CheckNice verdict if d is not in the nice normal form. Callers
// must treat the returned slices as immutable: they are d's own bags,
// and every caller of SortedBags and Schedule on d shares them.
func (d *Decomposition) SortedBags() ([][]int, error) {
	p := d.planFor()
	if p.niceErr != nil {
		return nil, p.niceErr
	}
	return p.bags, nil
}

// Schedule executes compute(v) exactly once for every node of a nice
// decomposition, on the calling goroutine: bottom-up (down=false) in
// post-order, so every node runs after its children, and top-down
// (down=true) in reverse post-order, so every node runs after its
// parent.
//
// Cancellation: ctx is polled before every node, and the first error
// (unwrapped — callers add their own stage tag) is returned. A panic in
// compute comes back as a *stage.PanicError. The fault point is
// "dp.node", checked before every node.
//
// d must not be edited between runs except through its own mutators,
// which drop the plan.
func (d *Decomposition) Schedule(ctx context.Context, down bool, compute func(v int) error) (err error) {
	p := d.planFor()
	if p.niceErr != nil {
		return p.niceErr
	}
	defer func() {
		if r := recover(); r != nil {
			err = stage.NewPanicError(r)
		}
	}()
	for i := range p.post {
		v := p.post[i]
		if down {
			v = p.post[len(p.post)-1-i]
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := faultinject.Check("dp.node"); err != nil {
			return err
		}
		if err := compute(v); err != nil {
			return err
		}
	}
	return nil
}
