package datalog

import (
	"context"
	"strings"
	"testing"

	"repro/internal/stage"
)

// FuzzParse checks that the parser never panics and that accepted
// programs survive a print/reparse round trip.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"p(X) :- q(X).",
		"path(X, Z) :- path(X, Y), edge(Y, Z).",
		"flag.",
		"good(X) :- node(X), not bad(X), lt(X, X).",
		"p(a) :- q(a), \\+ r(a).",
		"% comment\np(a).",
		"p(X :-",
		":-",
		"p(,).",
		"((((",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		printed := p.String()
		p2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse of %q failed: %v", printed, err)
		}
		if got := p2.String(); got != printed {
			t.Fatalf("print/reparse not stable:\n%q\nvs\n%q", printed, got)
		}
	})
}

// fuzzSteps bounds each FuzzEval input's work: the engines' stream-tuples
// budget and the reference's step cap.
const fuzzSteps = 1 << 16

// FuzzEval holds both engines to the naive reference on random small
// programs over a fixed EDB. The reference is the one oracle that shares
// no join with them: wherever semi-naive evaluation and the reference
// both finish, they must agree, and so must the grounder wherever it
// accepts the program. Inputs that hit a work bound are skipped; so are
// errors, which the engines raise more eagerly than the reference (a
// builtin checked before a later atom fails, a predicate the EDB stores
// at another arity).
func FuzzEval(f *testing.F) {
	f.Add("p(X) :- e(X, Y).")
	f.Add("p(X) :- e(X, Y), not p(Y).")
	f.Add("p(X) :- e(X, X). q :- p(a).")
	f.Add("q :- e(A, 0, 0).")                      // an atom of another arity than its EDB relation
	f.Add("0:-" + strings.Repeat("e,", 25) + "0.") // a 2^25 cross product if mismatched atoms matched
	f.Add("e.0:-e.")                               // an intensional predicate the EDB stores at another arity
	f.Add("0(1):-0(0).0(0).")                      // a delta occurrence without variables
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 300 || strings.Count(src, ".") > 12 {
			return // keep evaluation cheap
		}
		p, err := Parse(src)
		if err != nil {
			return
		}
		db := NewDB()
		db.AddFact("e", "a", "b")
		db.AddFact("e", "b", "a")
		db.AddFact("p", "a")
		want, err := naiveEvalCapped(p, db, fuzzSteps)
		if err != nil {
			return
		}
		budget := func() context.Context {
			return stage.WithBudget(context.Background(), &stage.Budget{MaxStreamTuples: fuzzSteps})
		}
		if got, err := EvalCtx(budget(), p, db); err == nil {
			sameFacts(t, got, want, "Eval of "+src)
		}
		if got, err := EvalQuasiGuardedCtx(budget(), p, db.Clone(), TDFuncDeps(1)); err == nil {
			sameFacts(t, got, want, "EvalQuasiGuarded of "+src)
		}
	})
}
