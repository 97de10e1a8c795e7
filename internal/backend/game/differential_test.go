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

// randColored builds an n-element structure over {c/1} alone. The
// differential suite pairs it with explicit partial-k-tree
// decompositions: the primal graph of a unary signature is empty, so
// the decomposition — not the relations — sets the width both backends
// must process, which is what lets the suite reach widths 3 and 4
// (where a binary EDB would blow the automaton's MaxEDBSubsets).
func randColored(rng *rand.Rand, n int) *structure.Structure {
	sig := structure.MustSignature(structure.Predicate{Name: "c", Arity: 1})
	st := structure.New(sig)
	for i := 0; i < n; i++ {
		st.AddElem(fmt.Sprintf("v%d", i))
		if rng.Intn(2) == 0 {
			st.MustAddTuple("c", i)
		}
	}
	return st
}

// ktreeDecomposition decomposes a random partial k-tree on st's
// elements, giving a valid width-≤k decomposition of st.
func ktreeDecomposition(t *testing.T, ctx context.Context, rng *rand.Rand, st *structure.Structure, k int) *decomposeResult {
	t.Helper()
	g := graph.PartialKTree(st.Size(), k, 0.2, rng)
	d, rung, err := decompose.GraphLadderCtx(ctx, g)
	if err != nil {
		t.Fatalf("decompose partial %d-tree: %v", k, err)
	}
	if err := d.Validate(st); err != nil {
		t.Fatalf("decomposition invalid for structure: %v", err)
	}
	return &decomposeResult{d: d, rung: rung}
}

type decomposeResult struct {
	d    *tree.Decomposition
	rung string
}

// The formula tiers are calibrated to the automaton backend's cost
// growth in width: quantifier rank 1 costs ~50ms at width 2 but several
// seconds at width 4, so higher widths run the rank-0 tier only.
var (
	diffRank0Queries = []string{"c(x)", "~c(x)"}
	diffRank1Query   = "c(x) & exists y ~c(y)"
	diffRank1Sent    = "exists x c(x)"
)

// TestBackendDifferentialPartialKTrees is the cold differential suite:
// 50 random partial k-trees at widths 2–4, every point evaluated by the
// automaton backend and the game backend through the same explicit
// decomposition, answers compared exactly.
func TestBackendDifferentialPartialKTrees(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(23))
	tiers := []struct {
		k          int
		structures int
		rank1Every int // run the rank-1 tier on every m-th structure (0 = never)
	}{
		{k: 2, structures: 20, rank1Every: 1},
		{k: 3, structures: 15, rank1Every: 5},
		{k: 4, structures: 15, rank1Every: 0},
	}
	total := 0
	for _, tier := range tiers {
		for s := 0; s < tier.structures; s++ {
			total++
			n := 6 + rng.Intn(9)
			st := randColored(rng, n)
			dr := ktreeDecomposition(t, ctx, rng, st, tier.k)
			queries := append([]string(nil), diffRank0Queries...)
			var sentences []string
			if tier.rank1Every > 0 && s%tier.rank1Every == 0 {
				queries = append(queries, diffRank1Query)
				sentences = append(sentences, diffRank1Sent)
			}
			for _, q := range queries {
				phi := mso.MustParse(q)
				ares, err := core.RunWithDecompositionCtx(ctx, st, dr.d, phi, "x", core.Options{})
				if err != nil {
					t.Fatalf("k=%d s=%d (%s) automaton %q: %v", tier.k, s, dr.rung, q, err)
				}
				gres, err := core.RunWithDecompositionCtx(ctx, st, dr.d, phi, "x", core.Options{Backend: core.GameBackend})
				if err != nil {
					t.Fatalf("k=%d s=%d (%s) game %q: %v", tier.k, s, dr.rung, q, err)
				}
				if !ares.Selected.Equal(gres.Selected) {
					t.Fatalf("k=%d s=%d %q: automaton %v, game %v", tier.k, s, q, ares.Selected, gres.Selected)
				}
			}
			for _, snt := range sentences {
				phi := mso.MustParse(snt)
				ares, err := core.RunWithDecompositionCtx(ctx, st, dr.d, phi, "", core.Options{Decision: true})
				if err != nil {
					t.Fatalf("k=%d s=%d automaton sentence %q: %v", tier.k, s, snt, err)
				}
				gres, err := core.RunWithDecompositionCtx(ctx, st, dr.d, phi, "", core.Options{Decision: true, Backend: core.GameBackend})
				if err != nil {
					t.Fatalf("k=%d s=%d game sentence %q: %v", tier.k, s, snt, err)
				}
				if ares.Holds != gres.Holds {
					t.Fatalf("k=%d s=%d sentence %q: automaton %v, game %v", tier.k, s, snt, ares.Holds, gres.Holds)
				}
			}
		}
	}
	if total < 50 {
		t.Fatalf("differential suite covered %d structures, want ≥ 50", total)
	}
}

// Formulas of TestGameMatchesNaiveOraclePartialKTrees: first-order
// queries and sentences up to rank 2 whose binary atoms join elements
// on both sides of a node's bag, and set-quantified ones, which the
// naive checker affords on small structures only.
var (
	kTreeQueries = []string{
		"c(x)",
		coldDPFormula,
		"forall y ((edge(x,y) | edge(y,x)) -> c(y))",
		"exists y exists z (edge(x,y) & edge(y,z) & x != z)",
		"exists y (edge(y,x) & forall z (edge(y,z) -> c(z)))",
		"exists y exists z (y != z & edge(x,y) & edge(x,z) & ~c(y) & ~c(z))",
		"~exists y (edge(x,y) | edge(y,x))",
	}
	kTreeSentences = []string{
		"exists x exists y (edge(x,y) & c(x) & c(y))",
		"forall x (c(x) | exists y (edge(x,y) & c(y)))",
	}
	kTreeSetQueries = []string{
		"exists Y (x in Y & forall z (edge(x,z) -> ~z in Y))",
		"forall Y (x in Y -> exists z (z in Y & c(z)))",
	}
	kTreeSetSentences = []string{
		"exists X ((exists x x in X) & forall y (y in X -> c(y)))",
	}
)

// TestGameMatchesNaiveOraclePartialKTrees checks the game backend
// against the naive model checker on the inputs the benchmark's cold-dp
// ops send it: colored partial k-trees over {edge/2, c/1} (k = 1–3, up
// to 45 elements) through the decomposition ladder's nice form. Their
// nice forms are deep and branch, so each element's context — the
// structure outside a node's subtree — is built from many forget,
// introduce and branch steps, with edges crossing every boundary.
func TestGameMatchesNaiveOraclePartialKTrees(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(41))
	deep := false
	for _, n := range []int{6, 10, 25, 45} {
		for k := 1; k <= 3; k++ {
			st := coloredKTree(n, k, rng)
			d, _, err := decompose.StructureLadderCtx(ctx, st)
			if err != nil {
				t.Fatalf("n=%d k=%d: decompose: %v", n, k, err)
			}
			nice, err := tree.NormalizeNiceCtx(ctx, d, tree.NiceOptions{})
			if err != nil {
				t.Fatalf("n=%d k=%d: normalize: %v", n, k, err)
			}
			if branches(nice) >= 3 && depth(nice, nice.Root) >= 20 {
				deep = true
			}
			queries, sentences := kTreeQueries, kTreeSentences
			if n <= 12 {
				queries = append(append([]string(nil), queries...), kTreeSetQueries...)
				sentences = append(append([]string(nil), sentences...), kTreeSetSentences...)
			}
			for _, q := range queries {
				phi := mso.MustParse(q)
				got, err := core.EvalGame(ctx, st, nice, phi, "x", core.Options{}, &stage.Trace{})
				if err != nil {
					t.Fatalf("n=%d k=%d %q: game: %v", n, k, q, err)
				}
				want, err := mso.QueryCtx(ctx, st, phi, "x", nil)
				if err != nil {
					t.Fatalf("n=%d k=%d %q: naive: %v", n, k, q, err)
				}
				if !got.Selected.Equal(want) {
					t.Fatalf("n=%d k=%d %q: game %v, naive %v\nstructure:\n%s", n, k, q, got.Selected, want, st)
				}
			}
			for _, s := range sentences {
				phi := mso.MustParse(s)
				got, err := core.EvalGame(ctx, st, nice, phi, "", core.Options{Decision: true}, &stage.Trace{})
				if err != nil {
					t.Fatalf("n=%d k=%d %q: game: %v", n, k, s, err)
				}
				want, err := mso.SentenceCtx(ctx, st, phi, nil)
				if err != nil {
					t.Fatalf("n=%d k=%d %q: naive: %v", n, k, s, err)
				}
				if got.Holds != want {
					t.Fatalf("n=%d k=%d %q: game %v, naive %v", n, k, s, got.Holds, want)
				}
			}
		}
	}
	if !deep {
		t.Fatal("no nice form had ≥ 3 branch nodes and depth ≥ 20")
	}
}

func branches(d *tree.Decomposition) int {
	out := 0
	for _, n := range d.Nodes {
		if n.Kind == tree.KindBranch {
			out++
		}
	}
	return out
}

// depth counts the nodes on the longest path from v down to a leaf.
func depth(d *tree.Decomposition, v int) int {
	out := 0
	for _, c := range d.Nodes[v].Children {
		out = max(out, depth(d, c))
	}
	return out + 1
}
