package tree

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/stage"
)

// plan is the precomputation shared by every SortedBags and Schedule
// call on one nice decomposition: the CheckNice verdict, every bag in
// sorted order, the post-order, and the chain schedule driving the
// worker pool. It is built on first use and kept on the decomposition it
// describes, so a decide-then-witness pair, an Up-then-Down pass and
// repeated probes of one form share it, and it is collected with the
// form. It holds no pointer back to the decomposition.
type plan struct {
	niceErr error
	bags    [][]int // node → sorted bag: the node's own Bag when sorted
	post    []int   // children before parents

	// Chain schedule: a chain is a maximal path of unary (introduce /
	// forget / copy) nodes above a head node (leaf or branch), listed
	// bottom-to-top. Chains are the unit of work of the worker pool —
	// fine enough to expose every independent subtree, coarse enough
	// that scheduling overhead stays off the per-node path.
	chains     [][]int // chain → node IDs, bottom-to-top
	consumer   []int   // chain → chain containing its top node's parent (-1 for the root chain)
	feeders    [][]int // chain → chains it unblocks in a top-down pass
	branchDeps []int32 // chain → number of feeder chains (0 for leaf-headed, 2 for branch-headed)
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

	chainOf := make([]int, n)
	for _, v := range p.post {
		if len(d.Nodes[v].Children) == 1 {
			continue // unary nodes are absorbed by the chain rising from below
		}
		id := len(p.chains)
		chain := []int{v}
		chainOf[v] = id
		cur := v
		for {
			pa := d.Nodes[cur].Parent
			if pa < 0 || len(d.Nodes[pa].Children) != 1 {
				break
			}
			chain = append(chain, pa)
			chainOf[pa] = id
			cur = pa
		}
		p.chains = append(p.chains, chain)
	}
	p.consumer = make([]int, len(p.chains))
	p.feeders = make([][]int, len(p.chains))
	p.branchDeps = make([]int32, len(p.chains))
	for id, chain := range p.chains {
		top := chain[len(chain)-1]
		pa := d.Nodes[top].Parent
		if pa < 0 {
			p.consumer[id] = -1
			continue
		}
		c := chainOf[pa] // pa has two children, so it heads its own chain
		p.consumer[id] = c
		p.feeders[c] = append(p.feeders[c], id)
	}
	for id := range p.chains {
		p.branchDeps[id] = int32(len(p.feeders[id]))
	}
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
// decomposition, in dependency order: bottom-up (down=false) every node
// runs after its children, top-down (down=true) after its parent.
// Independent subtrees fan out over stage.Workers(ctx) goroutines;
// decompositions below 64 nodes run serially. Each node is computed
// exactly once, by one goroutine, from dependencies that are complete
// before it starts, so an evaluator that iterates its inputs in a
// deterministic order gets byte-identical results at every worker count.
//
// compute may be invoked from several goroutines at once and must be
// safe for concurrent use; writes to disjoint per-node slots are.
//
// Cancellation: ctx is polled before every node, the pool drains
// without leaking goroutines, and the first error (unwrapped — callers
// add their own stage tag) is returned. A panic in compute comes back
// as a *stage.PanicError. The fault points are "dp.node" (every node)
// and "dp.chain" (every chain of a parallel run).
//
// d must not be edited between runs except through its own mutators,
// which drop the plan.
func (d *Decomposition) Schedule(ctx context.Context, down bool, compute func(v int) error) error {
	p := d.planFor()
	if p.niceErr != nil {
		return p.niceErr
	}
	return runChains(ctx, p, down, compute)
}

// minParallelNodes keeps tiny decompositions serial: below this node
// count the scheduling overhead exceeds the DP work.
const minParallelNodes = 64

// runChains executes compute(v) once for every node of the plan. Bottom-up
// (down=false), a chain runs after its feeder chains — the two subtrees
// below its branch head — so independent subtrees fan out across the
// worker pool; top-down (down=true) the dependencies reverse and chains
// run top node first.
//
// On cancellation (or a compute error, e.g. a budget violation) the
// workers stop computing but keep propagating chain completions, so the
// ready channel still closes, every goroutine exits and the pool drains.
// A panic in compute is recovered instead of killing the worker
// goroutine, which would crash the process: an unrecovered panic in a
// goroutine cannot be caught anywhere else.
func runChains(ctx context.Context, p *plan, down bool, compute func(v int) error) error {
	safe := func(v int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = stage.NewPanicError(r)
			}
		}()
		if err := faultinject.Check("dp.node"); err != nil {
			return err
		}
		return compute(v)
	}
	workers := 1
	if len(p.post) >= minParallelNodes {
		workers = min(stage.Workers(ctx), len(p.chains))
	}
	if workers <= 1 {
		if down {
			for i := len(p.post) - 1; i >= 0; i-- {
				if err := ctx.Err(); err != nil {
					return err
				}
				if err := safe(p.post[i]); err != nil {
					return err
				}
			}
		} else {
			for _, v := range p.post {
				if err := ctx.Err(); err != nil {
					return err
				}
				if err := safe(v); err != nil {
					return err
				}
			}
		}
		return nil
	}
	pending := make([]int32, len(p.chains))
	ready := make(chan int, len(p.chains))
	if down {
		for id := range p.chains {
			if p.consumer[id] >= 0 {
				pending[id] = 1
			} else {
				ready <- id
			}
		}
	} else {
		copy(pending, p.branchDeps)
		for id := range p.chains {
			if p.branchDeps[id] == 0 {
				ready <- id
			}
		}
	}
	var aborted atomic.Bool
	var abortErr error
	var abortOnce sync.Once
	abort := func(err error) {
		abortOnce.Do(func() { abortErr = err })
		aborted.Store(true)
	}
	var done atomic.Int32
	total := int32(len(p.chains))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range ready {
				chain := p.chains[id]
				// When aborted, skip the compute but keep the scheduling
				// bookkeeping below: successors must still become ready and
				// the completion count must still reach total, or close(ready)
				// would never fire and the pool would leak.
				if !aborted.Load() {
					if err := ctx.Err(); err != nil {
						abort(err)
					} else if err := faultinject.Check("dp.chain"); err != nil {
						// Per-chain injection point: exercises the abort
						// protocol of the parallel scheduler itself.
						abort(err)
					} else if down {
						for i := len(chain) - 1; i >= 0; i-- {
							if aborted.Load() {
								break
							}
							if err := safe(chain[i]); err != nil {
								abort(err)
								break
							}
						}
					} else {
						for _, v := range chain {
							if aborted.Load() {
								break
							}
							if err := safe(v); err != nil {
								abort(err)
								break
							}
						}
					}
				}
				if down {
					for _, f := range p.feeders[id] {
						if atomic.AddInt32(&pending[f], -1) == 0 {
							ready <- f
						}
					}
				} else {
					if c := p.consumer[id]; c >= 0 && atomic.AddInt32(&pending[c], -1) == 0 {
						ready <- c
					}
				}
				// Successor sends (above) happen before the completion count,
				// so the close below cannot race a pending send.
				if done.Add(1) == total {
					close(ready)
				}
			}
		}()
	}
	wg.Wait()
	if aborted.Load() {
		return abortErr
	}
	return ctx.Err()
}
