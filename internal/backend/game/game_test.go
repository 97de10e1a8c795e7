package game_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/mso"
	"repro/internal/structure"
)

func randomStructure(rng *rand.Rand, n int) *structure.Structure {
	sig := structure.MustSignature(
		structure.Predicate{Name: "e", Arity: 2},
		structure.Predicate{Name: "c", Arity: 1},
	)
	st := structure.New(sig)
	for i := 0; i < n; i++ {
		st.AddElem(fmt.Sprintf("a%d", i))
	}
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.5 {
			st.MustAddTuple("c", i)
		}
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.3 {
				st.MustAddTuple("e", i, j)
			}
		}
	}
	return st
}

// Unary queries covering atoms, equality, negation, element and set
// quantifiers up to rank 3.
var oracleQueries = []string{
	"c(x)",
	"~c(x)",
	"x = x",
	"exists y e(x, y)",
	"exists y (e(x,y) & ~c(y))",
	"forall y (e(x,y) -> c(y))",
	"exists y (y != x & e(x,y))",
	"exists y exists z (y != z & e(x,y) & e(x,z))",
	"exists Y (x in Y & forall z (z in Y -> c(z)))",
	"forall Y (x in Y -> exists z (z in Y & c(z)))",
}

// Sentences for the decision variant.
var oracleSentences = []string{
	"exists x c(x)",
	"forall x (c(x) | exists y e(x,y))",
	"exists x exists y (e(x,y) & x != y)",
	"forall x forall y (e(x,y) -> e(y,x))",
	"exists X (exists x (x in X) & forall y (y in X -> c(y)))",
}

// TestGameMatchesNaiveOracle cross-checks the game backend against the
// naive MSO model checker on random structures: same Selected set for
// unary queries, same truth value for sentences. The naive checker is
// exact, so any divergence is a game-backend bug.
func TestGameMatchesNaiveOracle(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		n := 1 + rng.Intn(7)
		st := randomStructure(rng, n)
		for _, q := range oracleQueries {
			phi := mso.MustParse(q)
			got, err := core.RunCtx(ctx, st, phi, "x", core.Options{Backend: core.GameBackend})
			if err != nil {
				t.Fatalf("trial %d, query %q: game: %v", trial, q, err)
			}
			want, err := mso.QueryCtx(ctx, st, phi, "x", nil)
			if err != nil {
				t.Fatalf("trial %d, query %q: naive: %v", trial, q, err)
			}
			for a := 0; a < st.Size(); a++ {
				if got.Selected.Has(a) != want.Has(a) {
					t.Fatalf("trial %d, query %q, elem %s: game=%v naive=%v\nstructure:\n%s",
						trial, q, st.Name(a), got.Selected.Has(a), want.Has(a), st)
				}
			}
		}
		for _, s := range oracleSentences {
			phi := mso.MustParse(s)
			got, err := core.RunCtx(ctx, st, phi, "", core.Options{Backend: core.GameBackend, Decision: true})
			if err != nil {
				t.Fatalf("trial %d, sentence %q: game: %v", trial, s, err)
			}
			want, err := mso.SentenceCtx(ctx, st, phi, nil)
			if err != nil {
				t.Fatalf("trial %d, sentence %q: naive: %v", trial, s, err)
			}
			if got.Holds != want {
				t.Fatalf("trial %d, sentence %q: game=%v naive=%v\nstructure:\n%s",
					trial, s, got.Holds, want, st)
			}
		}
	}
}
