package solver_test

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/decompose"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/solver"
	"repro/internal/stage"
	"repro/internal/testutil/leak"
	"repro/internal/tree"
)

// twoCol is proper 2-coloring: one bit per sorted-bag position, cost =
// number of vertices colored 1 (so Optimize minimizes color-1 usage).
type twoCol struct {
	g *graph.Graph
}

const w1 = solver.Width(1)

func (p twoCol) Name() string { return "two-coloring" }

func (p twoCol) proper(bag []int, m uint64) bool {
	for i := 0; i < len(bag); i++ {
		for j := i + 1; j < len(bag); j++ {
			if p.g.HasEdge(bag[i], bag[j]) && m>>uint(i)&1 == m>>uint(j)&1 {
				return false
			}
		}
	}
	return true
}

func (p twoCol) Leaf(dst []solver.Out[uint64], _ int, bag []int) []solver.Out[uint64] {
	for m := uint64(0); m < 1<<uint(len(bag)); m++ {
		if p.proper(bag, m) {
			cost := 0
			for q := range bag {
				cost += int(m >> uint(q) & 1)
			}
			dst = append(dst, solver.Out[uint64]{State: m, Cost: cost})
		}
	}
	return dst
}

func (p twoCol) Introduce(dst []solver.Out[uint64], _ int, bag []int, elem int, child uint64) []solver.Out[uint64] {
	q := solver.Position(bag, elem)
	for bit := uint64(0); bit <= 1; bit++ {
		if m := w1.Insert(child, q, bit); p.proper(bag, m) {
			dst = append(dst, solver.Out[uint64]{State: m, Cost: int(bit)})
		}
	}
	return dst
}

func (p twoCol) Forget(dst []solver.Out[uint64], _ int, bag []int, elem int, child uint64) []solver.Out[uint64] {
	childBag := insertSorted(bag, elem)
	return append(dst, solver.Out[uint64]{State: w1.Drop(child, solver.Position(childBag, elem))})
}

func (p twoCol) Join(dst []solver.Out[uint64], _ int, bag []int, s1, s2 uint64) []solver.Out[uint64] {
	if s1 != s2 {
		return dst
	}
	dup := 0
	for q := range bag {
		dup += int(s1 >> uint(q) & 1)
	}
	return append(dst, solver.Out[uint64]{State: s1, Cost: -dup})
}

func (p twoCol) Accept(int, []int, uint64) bool { return true }

func niceFor(t *testing.T, g *graph.Graph) *tree.Decomposition {
	t.Helper()
	d, err := decompose.Graph(g, decompose.MinFill)
	if err != nil {
		t.Fatal(err)
	}
	nice, err := tree.NormalizeNice(d, tree.NiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return nice
}

// bipartiteness / 2-coloring counts for known graphs.
func TestModesOnKnownGraphs(t *testing.T) {
	ctx := context.Background()
	tests := []struct {
		name  string
		g     *graph.Graph
		count int64
	}{
		{"path4", graph.Path(4), 2},
		{"cycle4", graph.Cycle(4), 2},
		{"cycle5", graph.Cycle(5), 0}, // odd cycle: not bipartite
		{"triangle", graph.Complete(3), 0},
		{"single", graph.Path(1), 2},
	}
	for _, tc := range tests {
		nice := niceFor(t, tc.g)
		p := twoCol{tc.g}

		ok, err := solver.Decide(ctx, nice, p)
		if err != nil {
			t.Fatalf("%s: Decide: %v", tc.name, err)
		}
		if ok != (tc.count > 0) {
			t.Errorf("%s: Decide = %v, want %v", tc.name, ok, tc.count > 0)
		}

		n, err := solver.Count(ctx, nice, p)
		if err != nil {
			t.Fatalf("%s: Count: %v", tc.name, err)
		}
		if n.Cmp(big.NewInt(tc.count)) != 0 {
			t.Errorf("%s: Count = %v, want %d", tc.name, n, tc.count)
		}

		der, err := solver.Optimize(ctx, nice, p)
		if err != nil {
			t.Fatalf("%s: Optimize: %v", tc.name, err)
		}
		if (der != nil) != (tc.count > 0) {
			t.Errorf("%s: Optimize feasible = %v, want %v", tc.name, der != nil, tc.count > 0)
		}
		if der != nil {
			// Walk the witness into a full coloring and check it is proper
			// and uses der.Value ones.
			bags, err := nice.SortedBags()
			if err != nil {
				t.Fatal(err)
			}
			colors := make([]int, tc.g.N())
			if err := der.Walk(func(v int, s uint64) error {
				for q, e := range bags[v] {
					colors[e] = int(s >> uint(q) & 1)
				}
				return nil
			}); err != nil {
				t.Fatalf("%s: Walk: %v", tc.name, err)
			}
			ones := 0
			for _, c := range colors {
				ones += c
			}
			if ones != der.Value {
				t.Errorf("%s: witness uses %d ones, Optimize said %d", tc.name, ones, der.Value)
			}
			for _, e := range tc.g.Edges() {
				if colors[e[0]] == colors[e[1]] {
					t.Errorf("%s: witness not proper at edge %v", tc.name, e)
				}
			}
		}
	}
}

// TestSolvedNiceIsCollectable pins that a solve leaves nothing behind
// that keeps its nice form alive: the DP plan rides the form itself, so
// once the caller drops the form the garbage collector reclaims it.
func TestSolvedNiceIsCollectable(t *testing.T) {
	collected := make(chan struct{})
	func() {
		g := graph.PartialKTree(60, 2, 0.3, rand.New(rand.NewSource(5)))
		nice := niceFor(t, g)
		runtime.SetFinalizer(nice, func(*tree.Decomposition) { close(collected) })
		if _, err := solver.Decide(context.Background(), nice, twoCol{g}); err != nil {
			t.Fatal(err)
		}
	}()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("solved nice form still reachable after 50 GC cycles")
}

// TestDownMatchesUpAtLeaves cross-checks the two passes: for every
// leaf, combining its up states with the down tables must reproduce
// exactly the root-accepted derivations (here: every leaf state that
// extends to a full solution appears in the down table).
func TestDownMatchesUpAtLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.PartialKTree(30, 2, 0.3, rng)
	nice := niceFor(t, g)
	p := twoCol{g}
	ctx := context.Background()

	up, err := solver.Up[uint64, bool](ctx, nice, p, solver.Decision{})
	if err != nil {
		t.Fatal(err)
	}
	down, err := solver.Down[uint64, bool](ctx, nice, p, solver.Decision{}, up)
	if err != nil {
		t.Fatal(err)
	}
	feasible := false
	for v := range nice.Nodes {
		if nice.Nodes[v].Kind == tree.KindLeaf && down[v].Len() > 0 && up[v].Len() > 0 {
			feasible = true
		}
	}
	ok, err := solver.Decide(ctx, nice, p)
	if err != nil {
		t.Fatal(err)
	}
	if ok != feasible {
		t.Fatalf("Decide = %v but leaf up∧down feasibility = %v", ok, feasible)
	}
}

// TestChaosSolverPoints injects a fault at each evaluator point and
// checks stage tagging, a clean retry, and no goroutine leaks.
func TestChaosSolverPoints(t *testing.T) {
	defer faultinject.Reset()
	g := graph.Grid(6, 7) // bipartite, so the witness walk has a derivation
	nice := niceFor(t, g)
	p := twoCol{g}
	ctx := context.Background()

	want, err := solver.Count(ctx, nice, p)
	if err != nil {
		t.Fatal(err)
	}

	snap := leak.Before()
	for _, point := range []string{"solver.introduce", "solver.forget", "solver.join", "solver.witness", "dp.node"} {
		faultinject.Reset()
		faultinject.FailAt(point, 1)
		var ferr error
		if point == "solver.witness" {
			der, err := solver.Witness(ctx, nice, p)
			if err != nil {
				t.Fatalf("%s: up pass failed before the witness walk: %v", point, err)
			}
			ferr = der.Walk(func(int, uint64) error { return nil })
		} else {
			_, ferr = solver.Count(ctx, nice, p)
		}
		if !errors.Is(ferr, faultinject.ErrInjected) {
			t.Fatalf("%s: err = %v, want injected fault", point, ferr)
		}
		if got := stage.Of(ferr); got != stage.Solver {
			t.Fatalf("%s: tagged stage %q, want %q", point, got, stage.Solver)
		}
		faultinject.Reset()
		n, err := solver.Count(ctx, nice, p)
		if err != nil {
			t.Fatalf("%s: retry failed: %v", point, err)
		}
		if n.Cmp(want) != 0 {
			t.Fatalf("%s: retry count = %v, want %v", point, n, want)
		}
	}
	faultinject.Reset()
	snap.Check(t)
}

// TestCancellation: a cancelled context surfaces context.Canceled
// under a solver stage tag from every mode.
func TestCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := graph.PartialKTree(40, 2, 0.3, rng)
	nice := niceFor(t, g)
	p := twoCol{g}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := solver.Decide(ctx, nice, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("Decide: err = %v, want context.Canceled", err)
	}
	if _, err := solver.Count(ctx, nice, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("Count: err = %v, want context.Canceled", err)
	}
	if _, err := solver.Optimize(ctx, nice, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("Optimize: err = %v, want context.Canceled", err)
	}
}

// TestProblemPanicContained: a panic inside a problem hook comes back
// as a stage-tagged error, not a crash.
func TestProblemPanicContained(t *testing.T) {
	g := graph.Path(4)
	nice := niceFor(t, g)
	p := panicky{twoCol{g}}
	_, err := solver.Count(context.Background(), nice, p)
	if err == nil {
		t.Fatal("panicking problem returned nil error")
	}
	var perr *stage.PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v, want a stage.PanicError", err)
	}
}

type panicky struct{ twoCol }

func (p panicky) Forget(dst []solver.Out[uint64], node int, bag []int, elem int, child uint64) []solver.Out[uint64] {
	panic("kaboom")
}

// insertSorted returns a new sorted slice with v inserted: the
// reference model of a forget node's child bag.
func insertSorted(xs []int, v int) []int {
	out := make([]int, 0, len(xs)+1)
	i := 0
	for ; i < len(xs) && xs[i] < v; i++ {
		out = append(out, xs[i])
	}
	out = append(out, v)
	return append(out, xs[i:]...)
}
