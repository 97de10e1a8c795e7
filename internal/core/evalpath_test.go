package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/datalog"
	"repro/internal/mso"
	"repro/internal/structure"
)

// tenQueries are ten syntactically distinct quantifier-free queries
// over {c/1}.
var tenQueries = []string{
	"c(x)",
	"~c(x)",
	"c(x) | ~c(x)",
	"c(x) & c(x)",
	"c(x) -> c(x)",
	"~(c(x) & ~c(x))",
	"c(x) & (c(x) | ~c(x))",
	"~c(x) | c(x)",
	"c(x) & c(x) & c(x)",
	"(c(x) -> c(x)) & c(x)",
}

// evalPaths compiles phi for st and evaluates the program over st's
// τ_td both ways: grounded (Theorem 4.4, Grounder.Eval) and direct
// (the datalog engine's semi-naive fixpoint, datalog.EvalCtx). Each run
// reports its semi-naive engine traffic to its own collector.
func evalPaths(t *testing.T, st *structure.Structure, phi *mso.Formula, xVar string, opts Options) (grounded, direct *Result, gs, ds datalog.EngineStats) {
	t.Helper()
	edb, w := tdOf(t, st)
	opts.Width = w
	c, err := Compile(st.Sig(), phi, xVar, opts)
	if err != nil {
		t.Fatal(err)
	}
	var gc, dc datalog.StatsCollector
	gout, err := c.Grounder.Eval(datalog.WithStatsCollector(context.Background(), &gc), edb.Clone())
	if err != nil {
		t.Fatalf("grounded: %v", err)
	}
	dout, err := datalog.EvalCtx(datalog.WithStatsCollector(context.Background(), &dc), c.Program, edb)
	if err != nil {
		t.Fatalf("direct: %v", err)
	}
	if grounded, err = finishResult(st, c, opts, gout, 0, w, nil); err != nil {
		t.Fatal(err)
	}
	if direct, err = finishResult(st, c, opts, dout, 0, w, nil); err != nil {
		t.Fatal(err)
	}
	return grounded, direct, gc.Snapshot(), dc.Snapshot()
}

// TestEvalPathDirectMatchesGrounded pins the direct evaluation of a
// compiled program: the datalog engine's semi-naive fixpoint and the
// Theorem 4.4 grounding both select what the naive MSO checker selects,
// and only the direct path takes semi-naive join steps. The two paths
// share one join, so each is checked against mso.Query rather than
// against the other.
func TestEvalPathDirectMatchesGrounded(t *testing.T) {
	t.Parallel()
	st := randColored(rand.New(rand.NewSource(11)), 7)
	for _, q := range tenQueries {
		phi := mso.MustParse(q)
		grounded, direct, gs, ds := evalPaths(t, st, phi, "x", Options{})
		want, err := mso.Query(st, phi, "x", nil)
		if err != nil {
			t.Fatal(err)
		}
		if !direct.Selected.Equal(want) || !grounded.Selected.Equal(want) {
			t.Fatalf("query %q: direct selected %v, grounded %v, want %v", q, direct.Selected.Elems(), grounded.Selected.Elems(), want.Elems())
		}
		if gs.TuplesStreamed != 0 {
			t.Fatalf("query %q: grounded path took %d join steps, want 0 (grounding bypasses the semi-naive engine)", q, gs.TuplesStreamed)
		}
		if ds.TuplesStreamed == 0 {
			t.Fatalf("query %q: direct path reported no join steps", q)
		}
	}
}

// TestEvalPathDirectDecision checks the 0-ary decision variant on both
// paths against the naive MSO checker.
func TestEvalPathDirectDecision(t *testing.T) {
	t.Parallel()
	st := randColored(rand.New(rand.NewSource(12)), 6)
	for _, q := range []string{"exists x (c(x))", "forall x (c(x) | ~c(x))"} {
		phi := mso.MustParse(q)
		grounded, direct, _, _ := evalPaths(t, st, phi, "", Options{Decision: true})
		want, err := mso.Sentence(st, phi, nil)
		if err != nil {
			t.Fatal(err)
		}
		if direct.Holds != want || grounded.Holds != want {
			t.Fatalf("%q: direct holds = %v, grounded %v, want %v", q, direct.Holds, grounded.Holds, want)
		}
	}
}
