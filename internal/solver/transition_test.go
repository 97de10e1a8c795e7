// Tests of the one transition path: every problem hook appends into a
// buffer the engine owns and reuses across a node's child states.
package solver_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/domset"
	"repro/internal/graph"
	"repro/internal/solver"
	"repro/internal/threecol"
	"repro/internal/tree"
	"repro/internal/vcover"
	"repro/internal/wis"
)

// roomy is more outputs than any hook call of the recorded run makes.
const roomy = 64

// recorder wraps a problem and records, per node, the transition buffer
// each hook call receives and the one it returns. A hook handed less
// room than roomy appends into a fresh buffer with that room, so from a
// node's second call on, an engine that reuses its buffer hands over
// that same array every time.
type recorder struct {
	solver.Problem[uint64]
	mu    sync.Mutex
	calls map[int][]bufCall
}

type bufCall struct {
	len      int
	got, ret *solver.Out[uint64] // backing arrays of the received and returned buffers
}

func backing(b []solver.Out[uint64]) *solver.Out[uint64] {
	if cap(b) == 0 {
		return nil
	}
	return &b[:1][0]
}

func (r *recorder) record(node int, dst []solver.Out[uint64], run func([]solver.Out[uint64]) []solver.Out[uint64]) []solver.Out[uint64] {
	buf := dst
	if cap(buf) < roomy {
		buf = make([]solver.Out[uint64], 0, roomy)
	}
	out := run(buf)
	r.mu.Lock()
	r.calls[node] = append(r.calls[node], bufCall{len(dst), backing(dst), backing(out)})
	r.mu.Unlock()
	return out
}

func (r *recorder) Leaf(dst []solver.Out[uint64], node int, bag []int) []solver.Out[uint64] {
	return r.record(node, dst, func(buf []solver.Out[uint64]) []solver.Out[uint64] {
		return r.Problem.Leaf(buf, node, bag)
	})
}

func (r *recorder) Introduce(dst []solver.Out[uint64], node int, bag []int, elem int, child uint64) []solver.Out[uint64] {
	return r.record(node, dst, func(buf []solver.Out[uint64]) []solver.Out[uint64] {
		return r.Problem.Introduce(buf, node, bag, elem, child)
	})
}

func (r *recorder) Forget(dst []solver.Out[uint64], node int, bag []int, elem int, child uint64) []solver.Out[uint64] {
	return r.record(node, dst, func(buf []solver.Out[uint64]) []solver.Out[uint64] {
		return r.Problem.Forget(buf, node, bag, elem, child)
	})
}

func (r *recorder) Join(dst []solver.Out[uint64], node int, bag []int, s1, s2 uint64) []solver.Out[uint64] {
	return r.record(node, dst, func(buf []solver.Out[uint64]) []solver.Out[uint64] {
		return r.Problem.Join(buf, node, bag, s1, s2)
	})
}

// TestTransitionBufferReused: in both passes every hook receives an
// empty dst, and all hook calls at one node share one backing array —
// the one the node's first call returned.
func TestTransitionBufferReused(t *testing.T) {
	g := graph.PartialKTree(30, 3, 0.3, rand.New(rand.NewSource(8)))
	nice := niceFor(t, g)
	p, err := wis.Problem(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rec := &recorder{Problem: p}
	var up solver.Tables[uint64, int]
	for _, pass := range []string{"up", "down"} {
		rec.calls = map[int][]bufCall{}
		if pass == "up" {
			up, err = solver.Up(ctx, nice, rec, solver.MinCost{})
		} else {
			_, err = solver.Down(ctx, nice, rec, solver.MinCost{}, up)
		}
		if err != nil {
			t.Fatal(err)
		}
		reused := 0
		for v, calls := range rec.calls {
			for i, c := range calls {
				if c.len != 0 {
					t.Fatalf("%s pass, node %d, call %d: dst has length %d, want 0", pass, v, i, c.len)
				}
				if i == 0 {
					continue
				}
				if c.got != calls[0].ret {
					t.Fatalf("%s pass, node %d, call %d: dst is not the buffer the node's first call returned", pass, v, i)
				}
				reused++
			}
		}
		if reused == 0 {
			t.Fatalf("%s pass: no node made a second hook call", pass)
		}
	}
}

// TestTransitionAllocGate: the hooks of the problem packages append
// into a dst with spare capacity without allocating, so a run's only
// transition allocations are the engine's per-node buffers.
func TestTransitionAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are gated without -race")
	}
	g := graph.PartialKTree(40, 3, 0.3, rand.New(rand.NewSource(5)))
	nice := niceFor(t, g)
	bags, err := nice.SortedBags()
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := wis.Problem(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	problems := []solver.Problem[uint64]{
		threecol.Problem(g, 3), threecol.Problem(g, 5), // 2- and 4-bit states
		vcover.Problem(g), domset.Problem(g), weighted,
	}
	for _, p := range problems {
		dst := make([]solver.Out[uint64], 0, 1<<10)
		pass := func() {
			for v := range nice.Nodes {
				n, bag := &nice.Nodes[v], bags[v]
				if n.Kind == tree.KindLeaf {
					dst = p.Leaf(dst[:0], v, bag)
				}
				for _, s := range []uint64{0, 0x5555555555555555} {
					switch n.Kind {
					case tree.KindIntroduce:
						dst = p.Introduce(dst[:0], v, bag, n.Elem, s)
					case tree.KindForget:
						dst = p.Forget(dst[:0], v, bag, n.Elem, s)
					case tree.KindBranch:
						dst = p.Join(dst[:0], v, bag, s, s)
					}
				}
			}
		}
		if allocs := testing.AllocsPerRun(20, pass); allocs != 0 {
			t.Errorf("%s: %.0f allocations per pass over the nodes, want 0", p.Name(), allocs)
		}
	}
}
