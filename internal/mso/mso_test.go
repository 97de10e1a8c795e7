package mso

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/structure"
)

func TestParseBasics(t *testing.T) {
	cases := []string{
		"e(x, y)",
		"x = y",
		"x != y",
		"x in X",
		"x notin X",
		"X sub Y",
		"X psub Y",
		"~e(x, y)",
		"e(x,y) & e(y,z) | e(z,x)",
		"e(x,y) -> e(y,x) -> e(x,x)",
		"e(x,y) <-> e(y,x)",
		"exists x forall Y (x in Y)",
		"true & ~false",
	}
	for _, src := range cases {
		f, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		// Round trip through String.
		if _, err := Parse(f.String()); err != nil {
			t.Errorf("reparse of %q → %q: %v", src, f.String(), err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"e(x",
		"e(x,)",
		"x ==",
		"exists (x)",
		"x in y",  // lower-case set variable
		"X sub y", // lower-case set variable
		"e(x,y) &",
		"(e(x,y)",
		"e(x,y))",
		"x <- y",
		"@",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestQuantifierScope(t *testing.T) {
	// The quantifier scopes right: exists x p(x) & q(x) binds both.
	f := MustParse("exists x (p(x) & q(x))")
	g := MustParse("exists x p(x) & q(x)")
	if f.String() != g.String() {
		t.Fatalf("scope mismatch: %s vs %s", f, g)
	}
}

func TestQuantifierDepth(t *testing.T) {
	cases := []struct {
		src  string
		want int
	}{
		{"e(x,y)", 0},
		{"exists x e(x,x)", 1},
		{"exists x forall y e(x,y)", 2},
		// The quantifier scopes right, so the ∀ nests inside the ∃.
		{"exists x e(x,x) & forall y e(y,y)", 2},
		{"(exists x e(x,x)) & (forall y e(y,y))", 1},
		{"X sub Y", 1}, // desugars to ∀
		{"exists X (X sub Y)", 2},
	}
	for _, tc := range cases {
		if got := MustParse(tc.src).QuantifierDepth(); got != tc.want {
			t.Errorf("depth(%q) = %d, want %d", tc.src, got, tc.want)
		}
	}
	if d := ThreeColorability().QuantifierDepth(); d != 5 {
		t.Errorf("depth(3COL) = %d, want 5 (3 set + 2 element)", d)
	}
}

func TestMentions(t *testing.T) {
	f := MustParse("c(x) & exists Y forall y (y in Y -> ~edge(x, y))")
	for pred, want := range map[string]bool{"c": true, "edge": true, "e": false, "x": false, "Y": false} {
		if got := f.Mentions(pred); got != want {
			t.Errorf("Mentions(%q) = %v, want %v", pred, got, want)
		}
	}
	if MustParse("x = x").Mentions("c") {
		t.Error("an equality mentions no predicate")
	}
	if n := testing.AllocsPerRun(10, func() { f.Mentions("e") }); n != 0 {
		t.Errorf("Mentions allocates %.0f times, want 0", n)
	}
}

func TestCheckSignature(t *testing.T) {
	sig := structure.MustSignature(structure.Predicate{Name: "edge", Arity: 2}, structure.Predicate{Name: "c", Arity: 1})
	for src, ok := range map[string]bool{
		"c(x) & exists y edge(x, y)":    true,
		"x = x":                         true,
		"edge(x)":                       false, // arity
		"d(x)":                          false, // unknown predicate
		"c(x) | exists y edge(x, y, y)": false,
	} {
		if err := MustParse(src).CheckSignature(sig); (err == nil) != ok {
			t.Errorf("CheckSignature(%q) = %v, want ok %v", src, err, ok)
		}
	}
	f := MustParse("c(x) & exists y edge(x, y)")
	if n := testing.AllocsPerRun(10, func() { f.CheckSignature(sig) }); n != 0 {
		t.Errorf("CheckSignature allocates %.0f times, want 0", n)
	}
}

// TestCheckFree pins CheckFree against FreeVars: a formula passes for x
// exactly when its only free variable is the element variable x, and
// for "" exactly when it is a sentence.
func TestCheckFree(t *testing.T) {
	for _, tc := range []struct {
		src, x string
		ok     bool
	}{
		{"c(x) & exists y edge(x, y)", "x", true},
		{"exists x c(x)", "", true},
		{"exists X (x in X)", "x", true},
		{"(exists x c(x)) & c(x)", "x", true}, // bound and free occurrences
		{"c(y)", "x", false},
		{"x in Y", "x", false},        // a free set variable
		{"c(x)", "", false},           // a unary query is not a sentence
		{"exists x c(x)", "x", false}, // x does not occur free
		{"x = y", "x", false},         // a second free variable
		{"forall y edge(x, z)", "x", false},
	} {
		err := MustParse(tc.src).CheckFree(tc.x)
		if (err == nil) != tc.ok {
			t.Errorf("CheckFree(%q, %q) = %v, want ok %v", tc.src, tc.x, err, tc.ok)
		}
		elems, sets := MustParse(tc.src).FreeVars()
		want := len(sets) == 0 && (tc.x == "" && len(elems) == 0 || len(elems) == 1 && elems[0] == tc.x)
		if want != tc.ok {
			t.Errorf("%q with %q: FreeVars gives %v %v, the table says ok %v", tc.src, tc.x, elems, sets, tc.ok)
		}
	}
	f := MustParse("c(x) & exists y (edge(x, y) & forall Z (y in Z))")
	if n := testing.AllocsPerRun(10, func() { f.CheckFree("x") }); n != 0 {
		t.Errorf("CheckFree allocates %.0f times, want 0", n)
	}
}

// TestParseConcurrentSub parses one text using sub and psub from many
// goroutines at once: under -race this pins that Parse shares no state
// between calls, and every parse must render alike.
func TestParseConcurrentSub(t *testing.T) {
	const src = "exists X exists Y (X sub Y & Y psub X | x in X)"
	want := MustParse(src).String()
	got := make([]string, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = MustParse(src).String()
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("parse %d renders %q, want %q", i, g, want)
		}
	}
}

func TestFreeVars(t *testing.T) {
	f := MustParse("exists Y (x in Y & y in Z)")
	elems, sets := f.FreeVars()
	if len(elems) != 2 || elems[0] != "x" || elems[1] != "y" {
		t.Fatalf("free elems = %v", elems)
	}
	if len(sets) != 1 || sets[0] != "Z" {
		t.Fatalf("free sets = %v", sets)
	}
	if e, s := ThreeColorability().FreeVars(); len(e) != 0 || len(s) != 0 {
		t.Fatalf("3COL not a sentence: %v %v", e, s)
	}
	if e, s := Primality().FreeVars(); len(e) != 1 || e[0] != "x" || len(s) != 0 {
		t.Fatalf("Primality free vars: %v %v", e, s)
	}
}

func TestEvalFirstOrder(t *testing.T) {
	st := graph.Path(3).ToStructure() // 0-1-2, symmetric edges
	check := func(src string, want bool) {
		t.Helper()
		got, err := Sentence(st, MustParse(src), nil)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if got != want {
			t.Fatalf("%q = %v, want %v", src, got, want)
		}
	}
	check("exists x exists y e(x, y)", true)
	check("forall x exists y e(x, y)", true)
	check("exists x forall y (x = y | e(x, y))", true) // middle vertex
	check("forall x forall y e(x, y)", false)
	check("exists x e(x, x)", false)
	check("forall x exists y exists z (e(x,y) & e(x,z) & y != z)", false) // endpoints have degree 1
}

func TestEvalSecondOrder(t *testing.T) {
	st := graph.Path(3).ToStructure()
	// There is an independent set containing both endpoints.
	f := MustParse("exists X (forall x forall y (x in X & y in X -> ~e(x,y)) & exists x exists y (x != y & x in X & y in X))")
	got, err := Sentence(st, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("independent set of size 2 not found in path")
	}
	// No independent set covers everything in a graph with an edge.
	g := MustParse("exists X (forall x (x in X) & forall x forall y (x in X & y in X -> ~e(x,y)))")
	got, err = Sentence(st, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("full independent set found despite edges")
	}
}

func TestEvalErrors(t *testing.T) {
	st := graph.Path(2).ToStructure()
	if _, err := Sentence(st, MustParse("q(x, y)"), nil); err == nil {
		t.Fatal("unknown predicate accepted")
	}
	if _, err := Sentence(st, MustParse("e(x, y)"), nil); err == nil {
		t.Fatal("unbound element variable accepted")
	}
	if _, err := Sentence(st, MustParse("x in X"), nil); err == nil {
		t.Fatal("unbound set variable accepted")
	}
	if _, err := Eval(st, MustParse("e(x)"), Interp{Elem: map[string]int{"x": 0}}, nil); err == nil {
		t.Fatal("arity violation accepted")
	}
}

func TestBudgetExhaustion(t *testing.T) {
	st := graph.Complete(8).ToStructure()
	f := ThreeColorability()
	_, err := Sentence(st, f, &Budget{MaxSteps: 1000})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("expected ErrBudget, got %v", err)
	}
}

func TestThreeColorabilitySentence(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"triangle", graph.Cycle(3), true},
		{"C5", graph.Cycle(5), true},
		{"K4", graph.Complete(4), false},
		{"path", graph.Path(4), true},
		{"single", graph.New(1), true},
	}
	f := ThreeColorability()
	for _, tc := range cases {
		got, err := Sentence(tc.g.ToStructure(), f, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Fatalf("3COL(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestPrimalityQuery(t *testing.T) {
	// Schema R = abcd, F = {f1: a→b}. Keys: acd. Primes: a, c, d.
	st := structure.MustParse(`
att(a). att(b). att(c). att(d).
fd(f1).
lh(a,f1). rh(b,f1).
`, nil)
	f := Primality()
	got, err := Query(st, f, "x", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"a": true, "b": false, "c": true, "d": true}
	for name, isPrime := range want {
		e, _ := st.Elem(name)
		if got.Has(e) != isPrime {
			t.Errorf("prime(%s) = %v, want %v", name, got.Has(e), isPrime)
		}
	}
	// FDs are never prime.
	if e, _ := st.Elem("f1"); got.Has(e) {
		t.Error("FD element reported prime")
	}
}

func TestPrimalitySmallTwoFDs(t *testing.T) {
	// R = abc, F = {f1: ab→c, f2: c→b}. Keys: ab, ac — all attributes prime.
	st := structure.MustParse(`
att(a). att(b). att(c).
fd(f1). fd(f2).
lh(a,f1). lh(b,f1). rh(c,f1).
lh(c,f2). rh(b,f2).
`, nil)
	got, err := Query(st, Primality(), "x", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		e, _ := st.Elem(name)
		if !got.Has(e) {
			t.Errorf("prime(%s) = false, want true", name)
		}
	}
}

// Property: on random graphs, the MSO 3-colorability sentence agrees with
// brute-force 3-coloring search.
func TestQuickThreeColAgainstBruteForce(t *testing.T) {
	f := ThreeColorability()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(5) + 2
		g := graph.New(n)
		for e := rng.Intn(2 * n); e > 0; e-- {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		got, err := Sentence(g.ToStructure(), f, nil)
		if err != nil {
			return false
		}
		return got == bruteForce3Col(g)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(43))}); err != nil {
		t.Fatal(err)
	}
}

func bruteForce3Col(g *graph.Graph) bool {
	n := g.N()
	colors := make([]int, n)
	var rec func(v int) bool
	rec = func(v int) bool {
		if v == n {
			return true
		}
		for c := 0; c < 3; c++ {
			ok := true
			g.Neighbors(v).ForEach(func(u int) bool {
				if u < v && colors[u] == c {
					ok = false
					return false
				}
				return true
			})
			if ok {
				colors[v] = c
				if rec(v + 1) {
					return true
				}
			}
		}
		return false
	}
	return rec(0)
}

func TestQueryHelper(t *testing.T) {
	st := graph.Path(3).ToStructure()
	// Vertices with degree ≥ 2 (the middle one).
	f := MustParse("exists y exists z (y != z & e(x,y) & e(x,z))")
	got, err := Query(st, f, "x", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || !got.Has(1) {
		t.Fatalf("Query = %v", got.Elems())
	}
}
