package datalog

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stage"
)

func TestParseAndString(t *testing.T) {
	p := MustParse(`
% transitive closure
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
edge(a, b). edge(b, c).
flag.
good(X) :- node(X), not bad(X).
node(a). node(b).
`)
	if len(p.Rules) != 8 {
		t.Fatalf("parsed %d rules", len(p.Rules))
	}
	if got := p.Rules[0].String(); got != "path(X,Y) :- edge(X,Y)." {
		t.Fatalf("String = %q", got)
	}
	if got := p.Rules[4].String(); got != "flag." {
		t.Fatalf("String = %q", got)
	}
	if !strings.Contains(p.Rules[5].String(), "not bad(X)") {
		t.Fatalf("negation lost: %s", p.Rules[5])
	}
	// Reparse the printed program.
	if _, err := Parse(p.String()); err != nil {
		t.Fatalf("reparse: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"p(X) :- q(X)",           // missing period
		"p(X :- q(X).",           // missing paren
		"p(X) :- .",              // empty body atom
		"p(X).",                  // unsafe fact (head var, no body)
		"p(X) :- not q(X).",      // unsafe: X only in negation
		"not p(a).",              // negated head
		"p(a) :- q(a), q(a,b).",  // inconsistent arity
		"p(X) :- q(Y).",          // unsafe head variable
		"p(X) :- q(X), lt(X,Z).", // unsafe builtin variable
		"p(&).",                  // bad character
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestTransitiveClosure(t *testing.T) {
	p := MustParse(`
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
`)
	db := NewDB()
	// A chain of 10 nodes.
	names := []string{"n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8", "n9"}
	for i := 0; i+1 < len(names); i++ {
		db.AddFact("edge", names[i], names[i+1])
	}
	out, err := Eval(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Count("path"); got != 45 {
		t.Fatalf("|path| = %d, want 45", got)
	}
	if !out.Has("path", "n0", "n9") || out.Has("path", "n9", "n0") {
		t.Fatal("path contents wrong")
	}
	// Input DB untouched.
	if db.Count("path") != 0 {
		t.Fatal("Eval mutated input database")
	}
}

func TestSameGeneration(t *testing.T) {
	// Classic nonlinear recursion.
	p := MustParse(`
sg(X, X) :- person(X).
sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).
`)
	db := NewDB()
	for _, pr := range [][2]string{{"b1", "a"}, {"b2", "a"}, {"c1", "b1"}, {"c2", "b2"}} {
		db.AddFact("par", pr[0], pr[1])
	}
	for _, n := range []string{"a", "b1", "b2", "c1", "c2"} {
		db.AddFact("person", n)
	}
	out, err := Eval(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Has("sg", "b1", "b2") || !out.Has("sg", "c1", "c2") {
		t.Fatal("same-generation facts missing")
	}
	if out.Has("sg", "b1", "c1") {
		t.Fatal("wrong generation derived")
	}
}

func TestStratifiedNegation(t *testing.T) {
	p := MustParse(`
reach(X) :- start(X).
reach(Y) :- reach(X), edge(X, Y).
unreach(X) :- node(X), not reach(X).
`)
	db := NewDB()
	db.AddFact("start", "a")
	db.AddFact("edge", "a", "b")
	db.AddFact("edge", "c", "d")
	for _, n := range []string{"a", "b", "c", "d"} {
		db.AddFact("node", n)
	}
	out, err := Eval(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Has("unreach", "c") || !out.Has("unreach", "d") {
		t.Fatal("unreach missing")
	}
	if out.Has("unreach", "a") || out.Has("unreach", "b") {
		t.Fatal("unreach wrong")
	}
}

func TestUnstratifiable(t *testing.T) {
	p := MustParse(`
win(X) :- move(X, Y), not win(Y).
`)
	db := NewDB()
	db.AddFact("move", "a", "b")
	if _, err := Eval(p, db); err == nil || !strings.Contains(err.Error(), "not stratified") {
		t.Fatalf("unstratifiable program accepted: %v", err)
	}
}

func TestMultipleStrata(t *testing.T) {
	p := MustParse(`
a(X) :- base(X).
b(X) :- base(X), not a(X).
c(X) :- base(X), not b(X).
`)
	db := NewDB()
	db.AddFact("base", "k")
	out, err := Eval(p, db)
	if err != nil {
		t.Fatal(err)
	}
	// a(k) holds, so b(k) fails, so c(k) holds.
	if !out.Has("a", "k") || out.Has("b", "k") || !out.Has("c", "k") {
		t.Fatal("strata evaluated in wrong order")
	}
}

func TestBuiltins(t *testing.T) {
	p := MustParse(`
less(X, Y) :- num(X), num(Y), lt(X, Y).
diff(X, Y) :- num(X), num(Y), neq(X, Y).
same(X, Y) :- num(X), num(Y), eq(X, Y).
le(X, Y) :- num(X), num(Y), lte(X, Y).
`)
	db := NewDB()
	for _, n := range []string{"2", "10"} {
		db.AddFact("num", n)
	}
	out, err := Eval(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Has("less", "2", "10") || out.Has("less", "10", "2") {
		t.Fatal("numeric lt wrong")
	}
	if out.Count("diff") != 2 || out.Count("same") != 2 || out.Count("le") != 3 {
		t.Fatalf("builtin counts wrong: %d %d %d", out.Count("diff"), out.Count("same"), out.Count("le"))
	}
}

func TestZeroAryGoal(t *testing.T) {
	p := MustParse(`
success :- root(V), good(V).
good(X) :- mark(X).
`)
	db := NewDB()
	db.AddFact("root", "r")
	out, err := Eval(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if out.Has("success") {
		t.Fatal("success derived without support")
	}
	db.AddFact("mark", "r")
	out, err = Eval(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Has("success") {
		t.Fatal("success not derived")
	}
}

// TestArityMismatchedAtoms pins that an atom matches no tuple of a
// stored relation of another arity, in the semi-naive engine as in the
// grounder: over a binary e, Eval used to derive q from the first two
// programs and panic with an index out of range on the next two. The
// last one, FuzzEval's 25-atom input, is a 2^25-row cross product
// unless the mismatched atoms are empty; the stream-tuples cap turns
// that into an error instead of a ten-second run.
func TestArityMismatchedAtoms(t *testing.T) {
	edb := NewDB()
	edb.AddFact("e", "a", "b")
	edb.AddFact("e", "b", "a")
	progs := []string{"q :- e.", "q :- e(A).", "q :- e(A, 0, 0).", "q :- e(A, b, a).", "0:-" + strings.Repeat("e,", 25) + "0."}
	for _, src := range progs {
		p := MustParse(src)
		ctx := stage.WithBudget(context.Background(), &stage.Budget{MaxStreamTuples: 1000})
		got, err := EvalCtx(ctx, p, edb)
		if err != nil {
			t.Fatalf("%q: Eval: %v", src, err)
		}
		want, err := EvalQuasiGuarded(p, edb.Clone(), TDFuncDeps(1))
		if err != nil {
			t.Fatalf("%q: EvalQuasiGuarded: %v", src, err)
		}
		sameFacts(t, got, want, src)
		ref, err := naiveEval(p, edb)
		if err != nil {
			t.Fatalf("%q: reference: %v", src, err)
		}
		sameFacts(t, got, ref, src+" (reference)")
	}
}

// TestStoredIntensionalTuples pins how both engines treat tuples the
// EDB already stores under a derived predicate's name. Stored tuples of
// the program's arity hold: EvalQuasiGuarded used to ground without
// them and miss q, where Eval and the naive reference derive it. Stored
// tuples of another arity are an error under both: both used to write
// the derived e() into the binary relation e, and Eval then missed q.
func TestStoredIntensionalTuples(t *testing.T) {
	edb := NewDB()
	edb.AddFact("e", "a", "b")
	edb.AddFact("p", "a")
	p := MustParse("p(b) :- e(a, b).\nq :- p(a).")
	want, err := naiveEval(p, edb)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Has("q") || !want.Has("p", "b") {
		t.Fatal("reference: q or p(b) not derived")
	}
	got, err := Eval(p, edb)
	if err != nil {
		t.Fatal(err)
	}
	sameFacts(t, got, want, "Eval")
	if got, err = EvalQuasiGuarded(p, edb.Clone(), TDFuncDeps(1)); err != nil {
		t.Fatal(err)
	}
	sameFacts(t, got, want, "EvalQuasiGuarded")

	other := MustParse("e.\nq :- e.")
	if _, err := Eval(other, edb); err == nil {
		t.Error("Eval accepted an EDB storing e at another arity")
	}
	if _, err := EvalQuasiGuarded(other, edb.Clone(), TDFuncDeps(1)); err == nil {
		t.Error("EvalQuasiGuarded accepted an EDB storing e at another arity")
	}
}

func TestConstantsInRules(t *testing.T) {
	p := MustParse(`
hit(X) :- edge(a, X).
special :- edge(a, b).
`)
	db := NewDB()
	db.AddFact("edge", "a", "b")
	db.AddFact("edge", "c", "d")
	out, err := Eval(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Has("hit", "b") || out.Has("hit", "d") || !out.Has("special") {
		t.Fatal("constant matching wrong")
	}
}

func TestRepeatedVariable(t *testing.T) {
	p := MustParse(`
loop(X) :- edge(X, X).
`)
	db := NewDB()
	db.AddFact("edge", "a", "a")
	db.AddFact("edge", "a", "b")
	out, err := Eval(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Has("loop", "a") || out.Count("loop") != 1 {
		t.Fatal("repeated variable unification wrong")
	}
}

func TestIsMonadic(t *testing.T) {
	mono := MustParse(`
good(X) :- e(X, Y), mark(Y).
mark(X) :- seed(X).
`)
	if !mono.IsMonadic() {
		t.Fatal("monadic program rejected")
	}
	poly := MustParse(`
p(X, Y) :- e(X, Y).
`)
	if poly.IsMonadic() {
		t.Fatal("binary intensional accepted as monadic")
	}
}

func TestFacts(t *testing.T) {
	p := MustParse(`
e(a, b).
r(X, Y) :- e(X, Y).
r(X, Y) :- r(X, Z), e(Z, Y).
e(b, c).
`)
	out, err := Eval(p, NewDB())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Has("r", "a", "c") {
		t.Fatal("facts in program not used")
	}
}

// Property: on random graphs, the engine's transitive closure agrees with
// a direct BFS computation.
func TestQuickTransitiveClosure(t *testing.T) {
	prog := MustParse(`
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
`)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(8) + 2
		adj := make([][]bool, n)
		for i := range adj {
			adj[i] = make([]bool, n)
		}
		db := NewDB()
		names := make([]string, n)
		for i := range names {
			names[i] = "v" + string(rune('0'+i))
			db.AddFact("node", names[i])
		}
		for e := rng.Intn(2 * n); e > 0; e-- {
			u, v := rng.Intn(n), rng.Intn(n)
			adj[u][v] = true
			db.AddFact("edge", names[u], names[v])
		}
		out, err := Eval(prog, db)
		if err != nil {
			return false
		}
		// Model: reachability in ≥1 step.
		reach := make([][]bool, n)
		for s := 0; s < n; s++ {
			reach[s] = make([]bool, n)
			var stack []int
			for v := 0; v < n; v++ {
				if adj[s][v] && !reach[s][v] {
					reach[s][v] = true
					stack = append(stack, v)
				}
			}
			for len(stack) > 0 {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for v := 0; v < n; v++ {
					if adj[u][v] && !reach[s][v] {
						reach[s][v] = true
						stack = append(stack, v)
					}
				}
			}
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if out.Has("path", names[u], names[v]) != reach[u][v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(37))}); err != nil {
		t.Fatal(err)
	}
}
