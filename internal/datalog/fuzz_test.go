package datalog

import (
	"strings"
	"testing"
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

// FuzzEval checks that evaluation of random small parsed programs over a
// fixed EDB never panics (errors are fine).
func FuzzEval(f *testing.F) {
	f.Add("p(X) :- e(X, Y).")
	f.Add("p(X) :- e(X, Y), not p(Y).")
	f.Add("p(X) :- e(X, X). q :- p(a).")
	f.Add("q :- e(A, 0, 0).")                      // an atom of another arity than its EDB relation
	f.Add("0:-" + strings.Repeat("e,", 25) + "0.") // a 2^25 cross product if mismatched atoms matched
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
		_, _ = Eval(p, db)
		_, _ = EvalQuasiGuarded(p, db, TDFuncDeps(1))
	})
}
