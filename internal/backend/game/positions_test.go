package game_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/decompose"
	"repro/internal/graph"
	"repro/internal/mso"
	"repro/internal/stage"
	"repro/internal/structure"
	"repro/internal/tree"
)

// coldDPFormula is the unary query of the benchmark's cold-dp game ops.
const coldDPFormula = "c(x) & exists y (edge(x,y) & ~c(y))"

// coloredKTree builds a structure the way the benchmark's cold-dp game
// ops do: a partial k-tree (edges kept with probability 0.7) over
// {edge/2, c/1}, with element 0 and a random half of the others
// colored.
func coloredKTree(n, k int, rng *rand.Rand) *structure.Structure {
	g := graph.PartialKTree(n, k, 0.3, rng)
	st := structure.New(structure.MustSignature(
		structure.Predicate{Name: "edge", Arity: 2},
		structure.Predicate{Name: "c", Arity: 1},
	))
	for i := 0; i < n; i++ {
		st.AddElem(fmt.Sprintf("v%d", i))
	}
	for _, e := range g.Edges() {
		st.MustAddTuple("edge", e[0], e[1])
	}
	st.MustAddTuple("c", 0)
	for _, v := range rng.Perm(n - 1)[:(n-1)/2] {
		st.MustAddTuple("c", v+1)
	}
	return st
}

// coloredPath is E15's escape structure (`benchtable -game`): the
// n-path over {e/2, c/1} with every even element colored.
func coloredPath(n int) *structure.Structure {
	st := structure.New(structure.MustSignature(
		structure.Predicate{Name: "e", Arity: 2},
		structure.Predicate{Name: "c", Arity: 1},
	))
	for i := 0; i < n; i++ {
		st.AddElem(fmt.Sprintf("v%d", i))
	}
	for i := 0; i+1 < n; i++ {
		st.MustAddTuple("e", i, i+1)
	}
	for i := 0; i < n; i += 2 {
		st.MustAddTuple("c", i)
	}
	return st
}

// positions runs one game evaluation and returns the positions it
// interned.
func positions(t *testing.T, st *structure.Structure, formula, xVar string) int64 {
	t.Helper()
	b := &stage.Budget{MaxGamePositions: 1 << 30}
	opts := core.Options{Backend: core.GameBackend, Decision: xVar == ""}
	if _, err := core.RunCtx(stage.WithBudget(context.Background(), b), st, mso.MustParse(formula), xVar, opts); err != nil {
		t.Fatalf("%s: %v", formula, err)
	}
	return b.GamePositionsUsed()
}

// TestGamePositionsPinned pins the game's work, counted in interned
// positions: the cold-dp query on three fixed-seed colored partial
// 2-trees and E15's escape sentence on the 60-path. The counts are
// deterministic; a change that moves one changes how much of the game
// is explored, and must say so.
func TestGamePositionsPinned(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want int64
	}{
		{40, 806},
		{80, 1191},
		{120, 1920},
	} {
		st := coloredKTree(tc.n, 2, rand.New(rand.NewSource(int64(tc.n))))
		if got := positions(t, st, coldDPFormula, "x"); got != tc.want {
			t.Errorf("cold-dp query, n=%d: %d positions, want %d", tc.n, got, tc.want)
		}
	}
	if got, want := positions(t, coloredPath(60), "exists x exists y (e(x,y) & c(x))", ""), int64(214); got != want {
		t.Errorf("escape sentence on the 60-path: %d positions, want %d", got, want)
	}
}

// TestGameAllocGate gates the allocations of one game evaluation: the
// cold-dp query on a prebuilt nice form of the seed-120 tree that
// TestGamePositionsPinned pins, as BenchmarkGameEval/n=120 runs it.
// Allocation counts are deterministic, so the ceiling is 1.10× the
// count measured (go1.24, linux/amd64) once positions were looked up
// before they were built, memo keys, position maps and bindings were
// interned to small ids, and structure.HasIdx stopped building a string
// key per probe. Building every candidate position in full, with string
// memo keys and a map per quantifier move, made 73,192.
func TestGameAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are gated without -race")
	}
	const measured = 6_251
	ctx := context.Background()
	st := coloredKTree(120, 2, rand.New(rand.NewSource(120)))
	d, _, err := decompose.StructureLadderCtx(ctx, st)
	if err != nil {
		t.Fatal(err)
	}
	nice, err := tree.NormalizeNiceCtx(ctx, d, tree.NiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	phi := mso.MustParse(coldDPFormula)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := core.EvalGame(ctx, st, nice, phi, "x", core.Options{}, &stage.Trace{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per game evaluation (ceiling %.0f)", allocs, 1.10*measured)
	if allocs > 1.10*measured {
		t.Fatalf("%.0f allocations per game evaluation, ceiling %.0f", allocs, 1.10*measured)
	}
}

// BenchmarkGameEval times one cold-dp-shaped unary query on a prebuilt
// nice form of a colored partial 2-tree.
func BenchmarkGameEval(b *testing.B) {
	ctx := context.Background()
	phi := mso.MustParse(coldDPFormula)
	for _, n := range []int{40, 80, 120} {
		st := coloredKTree(n, 2, rand.New(rand.NewSource(int64(n))))
		d, _, err := decompose.StructureLadderCtx(ctx, st)
		if err != nil {
			b.Fatal(err)
		}
		nice, err := tree.NormalizeNiceCtx(ctx, d, tree.NiceOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.EvalGame(ctx, st, nice, phi, "x", core.Options{}, &stage.Trace{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
