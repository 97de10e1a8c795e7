package session

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/mso"
	"repro/internal/structure"
)

// reparsedFingerprint is the fingerprint of st's canonical text parsed
// afresh: what a client re-sending that text resolves to.
func reparsedFingerprint(t testing.TB, st *structure.Structure) uint64 {
	t.Helper()
	back, err := structure.Parse(st.String(), nil)
	if err != nil {
		t.Fatalf("re-parse of %q: %v", st.String(), err)
	}
	return Fingerprint(back)
}

// edit is one tuple edit of an edit script, with its undo.
type edit struct {
	pred  string
	tuple []int
	add   bool
}

// apply performs e on st and reports whether st changed.
func (e edit) apply(st *structure.Structure) bool {
	if e.add {
		if st.Has(e.pred, e.tuple...) {
			return false
		}
		st.MustAddTuple(e.pred, e.tuple...)
		return true
	}
	return st.RemoveTuple(e.pred, e.tuple...)
}

// editScript derives tuple edits from next, which yields script bytes
// until it reports false: each edit adds or removes one tuple of one
// predicate over st's elements. It applies the edits that change st and
// returns their undos, last edit first.
func editScript(st *structure.Structure, next func() (byte, bool)) []edit {
	preds := st.Sig().Predicates()
	var undo []edit
	for {
		op, ok := next()
		if !ok || len(preds) == 0 {
			return undo
		}
		p := preds[int(op>>1)%len(preds)]
		e := edit{pred: p.Name, add: op&1 == 0}
		if e.add {
			if st.Size() == 0 && p.Arity > 0 {
				continue
			}
			for i := 0; i < p.Arity; i++ {
				b, _ := next()
				e.tuple = append(e.tuple, int(b)%st.Size())
			}
		} else {
			// Remove a stored tuple rather than a random one, which is
			// mostly absent.
			tuples := st.Tuples(p.Name)
			if len(tuples) == 0 {
				continue
			}
			b, _ := next()
			e.tuple = append([]int(nil), tuples[int(b)%len(tuples)]...)
		}
		if e.apply(st) {
			e.add = !e.add
			undo = append([]edit{e}, undo...)
		}
	}
}

// allNonEmpty reports whether every predicate of st has a tuple, so
// that its text declares its whole signature.
func allNonEmpty(st *structure.Structure) bool {
	for pi := range st.Sig().Predicates() {
		if len(st.TuplesIdx(pi)) == 0 {
			return false
		}
	}
	return true
}

// TestFingerprintContentOnly pins that a fingerprint depends on a
// structure's content, not on the order its tuples are stored in: after
// random edits that leave every predicate non-empty, the structure and
// its canonical text re-parsed fingerprint alike, and undoing the edits
// restores the original fingerprint.
func TestFingerprintContentOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	checked := 0
	for trial := 0; trial < 200; trial++ {
		st := coloredPartialKTree(rng, 3+rng.Intn(10), 1+rng.Intn(2))
		orig := Fingerprint(st)
		if allNonEmpty(st) && reparsedFingerprint(t, st) != orig {
			t.Fatalf("trial %d: fresh structure and its text fingerprint apart", trial)
		}
		n := rng.Intn(24)
		undo := editScript(st, func() (byte, bool) {
			n--
			return byte(rng.Intn(256)), n >= 0
		})
		if allNonEmpty(st) {
			checked++
			if got, want := Fingerprint(st), reparsedFingerprint(t, st); got != want {
				t.Fatalf("trial %d: after %d edits fingerprint %016x, its text's %016x", trial, len(undo), got, want)
			}
		}
		for _, e := range undo {
			e.apply(st)
		}
		if got := Fingerprint(st); got != orig {
			t.Fatalf("trial %d: undoing %d edits gave fingerprint %016x, want the original %016x", trial, len(undo), got, orig)
		}
	}
	if checked < 50 {
		t.Fatalf("only %d of 200 trials left every predicate non-empty", checked)
	}
}

// TestFingerprintRetractRestore pins the retract-then-restore case:
// RemoveTuple swap-removes, so the restored tuple is stored elsewhere,
// yet the fingerprint comes back.
func TestFingerprintRetractRestore(t *testing.T) {
	st := structure.MustParse("dom a b c. edge(a,b). edge(b,c). edge(c,a). col(a). col(c).", nil)
	orig := Fingerprint(st)
	if !st.RemoveFact("edge", "a", "b") {
		t.Fatal("edge(a,b) absent")
	}
	if Fingerprint(st) == orig {
		t.Fatal("retracting a tuple left the fingerprint unchanged")
	}
	if err := st.AddFact("edge", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if got := Fingerprint(st); got != orig {
		t.Fatalf("restored fingerprint %016x, want %016x", got, orig)
	}
}

// TestFingerprintDistinguishes pins what the sum does not forget: the
// order of a tuple's elements, the predicate a tuple belongs to, the
// order of the elements, and a predicate an edit emptied.
func TestFingerprintDistinguishes(t *testing.T) {
	for _, tc := range []struct{ name, a, b string }{
		{"argument order", "dom a b. edge(a,b).", "dom a b. edge(b,a)."},
		{"tuple moved to another predicate", "dom a b. p(a). q(b). p(b).", "dom a b. p(a). q(b). q(a)."},
		{"element order", "dom a b. edge(a,b).", "dom b a. edge(a,b)."},
		{"tuple count", "dom a b. p(a).", "dom a b. p(a). p(b)."},
	} {
		fa := Fingerprint(structure.MustParse(tc.a, nil))
		fb := Fingerprint(structure.MustParse(tc.b, nil))
		if fa == fb {
			t.Errorf("%s: %q and %q fingerprint alike", tc.name, tc.a, tc.b)
		}
	}
	st := structure.MustParse("dom a b. edge(a,b). c(a).", nil)
	st.RemoveFact("c", "a")
	if Fingerprint(st) == reparsedFingerprint(t, st) {
		t.Error("a structure with an emptied predicate fingerprints like its text, whose signature lacks it")
	}
}

// TestSubFormulaParsedTwiceHitsCaches pins that a formula using sub,
// parsed twice, compiles once and is evaluated once: both parses name
// the variable sub introduces alike, so they share every cache key.
func TestSubFormulaParsedTwiceHitsCaches(t *testing.T) {
	st := randColored(rand.New(rand.NewSource(5)), 8)
	s := NewWithCache(st, NewProgramCache())
	const src = "exists X (X sub X & x in X)"
	for i := 0; i < 2; i++ {
		res, err := s.Eval(context.Background(), mso.MustParse(src), "x", core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Selected.Len() != st.Size() {
			t.Fatalf("parse %d: selected %d of %d elements", i, res.Selected.Len(), st.Size())
		}
	}
	if _, misses := s.ProgramCacheStats(); misses != 1 {
		t.Errorf("%d compilations of one text, want 1", misses)
	}
	if stats := s.Stats(); stats.Evals != 1 || stats.ResultCacheHits != 1 {
		t.Errorf("Evals = %d, ResultCacheHits = %d, want 1 and 1", stats.Evals, stats.ResultCacheHits)
	}
}

// FuzzFingerprint parses a structure text, derives a tuple edit script
// from the fuzz bytes, and checks the content-only properties: with
// every predicate non-empty the edited structure fingerprints like its
// text, and undoing the script restores the original fingerprint.
func FuzzFingerprint(f *testing.F) {
	f.Add("dom a b c. edge(a,b). edge(b,c). c(a).", []byte{0, 3, 1, 2, 5, 1, 4})
	f.Add("p(a,b,c). p(c,b,a). q(b).", []byte{1, 1, 1, 0, 0, 0, 0, 3})
	f.Add("dom x. r(x).", []byte{1, 0, 0})
	f.Fuzz(func(t *testing.T, src string, script []byte) {
		st, err := structure.Parse(src, nil)
		if err != nil {
			return
		}
		orig := Fingerprint(st)
		undo := editScript(st, func() (byte, bool) {
			if len(script) == 0 {
				return 0, false
			}
			b := script[0]
			script = script[1:]
			return b, true
		})
		if allNonEmpty(st) {
			if got, want := Fingerprint(st), reparsedFingerprint(t, st); got != want {
				t.Fatalf("after %d edits fingerprint %016x, its text's %016x", len(undo), got, want)
			}
		}
		for _, e := range undo {
			e.apply(st)
		}
		if got := Fingerprint(st); got != orig {
			t.Fatalf("undoing %d edits gave fingerprint %016x, want %016x", len(undo), got, orig)
		}
	})
}
