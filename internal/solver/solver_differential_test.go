// Differential tests pinning the generic semiring engine against
// brute-force oracles: 2-coloring expressed as a solver.Problem must
// decide, count and optimize exactly like exhaustive enumeration, with
// witnesses that check out.
package solver_test

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/decompose"
	"repro/internal/graph"
	"repro/internal/solver"
	"repro/internal/stage"
	"repro/internal/tree"
)

// The problem: proper 2-coloring with cost = number of color-1
// vertices, expressed as a solver.Problem.

func proper(g *graph.Graph, bag []int, m uint64) bool {
	for i := 0; i < len(bag); i++ {
		for j := i + 1; j < len(bag); j++ {
			if g.HasEdge(bag[i], bag[j]) && m>>uint(i)&1 == m>>uint(j)&1 {
				return false
			}
		}
	}
	return true
}

func ones(bag []int, m uint64) int {
	c := 0
	for p := range bag {
		c += int(m >> uint(p) & 1)
	}
	return c
}

type tcProblem struct{ g *graph.Graph }

func (p tcProblem) Name() string { return "two-coloring" }

func (p tcProblem) Leaf(dst []solver.Out[uint64], _ int, bag []int) []solver.Out[uint64] {
	for m := uint64(0); m < 1<<uint(len(bag)); m++ {
		if proper(p.g, bag, m) {
			dst = append(dst, solver.Out[uint64]{State: m, Cost: ones(bag, m)})
		}
	}
	return dst
}

func (p tcProblem) Introduce(dst []solver.Out[uint64], _ int, bag []int, elem int, child uint64) []solver.Out[uint64] {
	q := solver.Position(bag, elem)
	for bit := uint64(0); bit <= 1; bit++ {
		if m := solver.Width(1).Insert(child, q, bit); proper(p.g, bag, m) {
			dst = append(dst, solver.Out[uint64]{State: m, Cost: int(bit)})
		}
	}
	return dst
}

func (p tcProblem) Forget(dst []solver.Out[uint64], _ int, bag []int, elem int, child uint64) []solver.Out[uint64] {
	childBag := insertSorted(bag, elem)
	return append(dst, solver.Out[uint64]{State: solver.Width(1).Drop(child, solver.Position(childBag, elem))})
}

func (p tcProblem) Join(dst []solver.Out[uint64], _ int, bag []int, s1, s2 uint64) []solver.Out[uint64] {
	if s1 != s2 {
		return dst
	}
	return append(dst, solver.Out[uint64]{State: s1, Cost: -ones(bag, s1)})
}

func (p tcProblem) Accept(int, []int, uint64) bool { return true }

// brute2Colorings enumerates all 2^n assignments and reports the number
// of proper ones and the minimum count of color-1 vertices over them
// (-1 if none is proper).
func brute2Colorings(g *graph.Graph) (count uint64, minOnes int) {
	n := g.N()
	minOnes = -1
	for m := uint64(0); m < 1<<uint(n); m++ {
		ok := true
		for _, e := range g.Edges() {
			if m>>uint(e[0])&1 == m>>uint(e[1])&1 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		count++
		o := 0
		for v := 0; v < n; v++ {
			o += int(m >> uint(v) & 1)
		}
		if minOnes < 0 || o < minOnes {
			minOnes = o
		}
	}
	return count, minOnes
}

func niceTC(t *testing.T, g *graph.Graph, guard bool) *tree.Decomposition {
	t.Helper()
	d, err := decompose.Graph(g, decompose.MinFill)
	if err != nil {
		t.Fatal(err)
	}
	nice, err := tree.NormalizeNice(d, tree.NiceOptions{BranchGuard: guard})
	if err != nil {
		t.Fatal(err)
	}
	return nice
}

// TestSolverDifferentialBruteForce compares the evaluation modes of the
// semiring engine against exhaustive enumeration on random partial
// k-trees (Minimum against Optimize, including on the infeasible
// trials), and walks the optimization witness back to a concrete
// coloring that must be proper and match the reported cost.
// Alternating BranchGuard covers the copy-node path.
func TestSolverDifferentialBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ctx := context.Background()
	p2 := func(trial int) bool { return trial%2 == 0 }
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(10)
		k := 1 + rng.Intn(3)
		g := graph.PartialKTree(n, k, 0.3, rng)
		nice := niceTC(t, g, p2(trial))
		p := tcProblem{g}
		wantCount, wantMin := brute2Colorings(g)

		got, err := solver.Decide(ctx, nice, p)
		if err != nil {
			t.Fatal(err)
		}
		if got != (wantCount > 0) {
			t.Fatalf("trial %d: Decide = %v, brute force has %d solutions", trial, got, wantCount)
		}

		cnt, err := solver.Count(ctx, nice, p)
		if err != nil {
			t.Fatal(err)
		}
		if cnt.Cmp(new(big.Int).SetUint64(wantCount)) != 0 {
			t.Fatalf("trial %d: Count = %v, brute force %d", trial, cnt, wantCount)
		}

		opt, err := solver.Optimize(ctx, nice, p)
		if err != nil {
			t.Fatal(err)
		}
		minimum, err := solver.Minimum(ctx, nice, p)
		if err != nil {
			t.Fatal(err)
		}
		if (minimum == nil) != (opt == nil) || (minimum != nil && minimum.Value != opt.Value) {
			t.Fatalf("trial %d: Minimum = %+v, Optimize = %+v", trial, minimum, opt)
		}
		if wantCount == 0 {
			if opt != nil {
				t.Fatalf("trial %d: Optimize found value %d on an infeasible graph", trial, opt.Value)
			}
			continue
		}
		if opt == nil || opt.Value != wantMin {
			t.Fatalf("trial %d: Optimize = %+v, brute-force min %d", trial, opt, wantMin)
		}

		// Walk the argmin witness back to vertex colors: every visited
		// (node, state) pair assigns the state's bits to the sorted bag.
		bags, err := nice.SortedBags()
		if err != nil {
			t.Fatal(err)
		}
		colors := make(map[int]int)
		err = opt.Walk(func(node int, s uint64) error {
			for i, e := range bags[node] {
				c := int(s >> uint(i) & 1)
				if prev, seen := colors[e]; seen && prev != c {
					t.Fatalf("trial %d: witness assigns vertex %d both colors", trial, e)
				}
				colors[e] = c
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		onesTotal := 0
		for v := 0; v < g.N(); v++ {
			c, seen := colors[v]
			if !seen {
				t.Fatalf("trial %d: witness leaves vertex %d uncolored", trial, v)
			}
			onesTotal += c
		}
		for _, e := range g.Edges() {
			if colors[e[0]] == colors[e[1]] {
				t.Fatalf("trial %d: witness coloring not proper at edge %v", trial, e)
			}
		}
		if onesTotal != opt.Value {
			t.Fatalf("trial %d: witness has %d color-1 vertices, Optimize reported %d", trial, onesTotal, opt.Value)
		}
	}
}

// TestSolverDownLeafEnvelope pins the top-down pass (solve↓ of Section
// 5.3) through the scheduler: the envelope of a leaf is the entire
// tree, so a leaf's top-down table is non-empty iff the whole graph is
// 2-colorable.
func TestSolverDownLeafEnvelope(t *testing.T) {
	ctx := context.Background()
	for _, g := range []*graph.Graph{graph.Cycle(5), graph.Cycle(6), graph.Grid(2, 4)} {
		nice := niceTC(t, g, true)
		p := tcProblem{g}
		up, err := solver.Up[uint64, bool](ctx, nice, p, solver.Decision{})
		if err != nil {
			t.Fatal(err)
		}
		down, err := solver.Down[uint64, bool](ctx, nice, p, solver.Decision{}, up)
		if err != nil {
			t.Fatal(err)
		}
		count, _ := brute2Colorings(g)
		want := count > 0
		for _, leaf := range nice.Leaves() {
			if got := down[leaf].Len() > 0; got != want {
				t.Fatalf("down table at leaf %d non-empty = %v, want %v", leaf, got, want)
			}
		}
	}
}

// TestBudgetTableEntries caps the DP table budget below what the run
// needs: the engine must stop with a stage-tagged budget error, with
// consumption bounded near the limit (the bounded-memory property — the
// periodic in-node check fires long before the tables blow past the
// cap), and a sufficient budget must change nothing about the result.
func TestBudgetTableEntries(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(41))
	g := graph.PartialKTree(120, 3, 0.3, rng)
	nice := niceTC(t, g, true)
	p := tcProblem{g}
	ctx := stage.WithWorkers(context.Background(), 8)

	// Establish the unconstrained total so the cap is genuinely binding.
	full, err := solver.Up[uint64, bool](ctx, nice, p, solver.Decision{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, tbl := range full {
		total += tbl.Len()
	}
	if total < 20 {
		t.Fatalf("workload too small to test the budget (total %d states)", total)
	}

	b := &stage.Budget{MaxTableEntries: int64(total / 4)}
	tables, err := solver.Up[uint64, bool](stage.WithBudget(ctx, b), nice, p, solver.Decision{})
	if !errors.Is(err, stage.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want budget exceeded", err)
	}
	if got := stage.Of(err); got != stage.Solver {
		t.Fatalf("tagged stage %q, want %q", got, stage.Solver)
	}
	var be *stage.BudgetError
	if !errors.As(err, &be) || be.Dimension != "table-entries" {
		t.Fatalf("err = %v, want table-entries BudgetError", err)
	}
	if tables != nil {
		t.Fatal("partial tables not discarded after budget violation")
	}

	// A sufficient budget changes nothing about the result.
	b2 := &stage.Budget{MaxTableEntries: int64(total)}
	got, err := solver.Up[uint64, bool](stage.WithBudget(ctx, b2), nice, p, solver.Decision{})
	if err != nil {
		t.Fatalf("run within budget: %v", err)
	}
	if len(got) != len(full) {
		t.Fatalf("budgeted run has %d tables, unbudgeted %d", len(got), len(full))
	}
	for v := range full {
		if !reflect.DeepEqual(got[v].Order, full[v].Order) {
			t.Fatalf("node %d: budgeted run diverged", v)
		}
	}
	if _, _, used := b2.Used(); used != int64(total) {
		t.Fatalf("budget accounting: used %d, want %d", used, total)
	}
}
