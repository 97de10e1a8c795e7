package datalog

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/horn"
)

// chainTD builds a τ_td-like EDB describing a chain of tree nodes with
// width-1 bags over elements, for exercising the quasi-guarded machinery.
func chainTD(n int) *DB {
	db := NewDB()
	node := func(i int) string { return "s" + itoa(i) }
	elem := func(i int) string { return "x" + itoa(i) }
	for i := 0; i < n; i++ {
		args := []string{node(i), elem(i), elem(i + 1)}
		db.AddFact("bag", args...)
		if i == 0 {
			db.AddFact("leaf", node(i))
		} else {
			db.AddFact("child1", node(i-1), node(i))
		}
		db.AddFact("e", elem(i), elem(i+1))
	}
	db.AddFact("root", node(n-1))
	return db
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var digits []byte
	for i > 0 {
		digits = append([]byte{byte('0' + i%10)}, digits...)
		i /= 10
	}
	return string(digits)
}

// tdProgram is a small monadic program over τ_td in the style of
// Theorem 4.5's output: types propagate bottom-up along child1.
const tdProgram = `
theta0(V) :- bag(V, X0, X1), leaf(V), e(X0, X1).
theta0(V) :- bag(V, X0, X1), child1(V1, V), theta0(V1), bag(V1, Y0, Y1), e(X0, X1).
accept :- root(V), theta0(V).
`

func TestQuasiGuardsDetection(t *testing.T) {
	p := MustParse(tdProgram)
	guards, err := QuasiGuards(p, TDFuncDeps(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(guards) != 3 {
		t.Fatalf("guards = %v", guards)
	}
	for ri, g := range guards {
		if g < 0 {
			t.Fatalf("rule %d got guard %d", ri, g)
		}
	}

	// Without the functional dependencies the program has no quasi-guard.
	if _, err := QuasiGuards(p, nil); err == nil {
		t.Fatal("rules accepted as quasi-guarded without FDs")
	}

	// A genuinely unguarded rule is rejected even with FDs.
	bad := MustParse(`p(X) :- q(X), r(Y).`)
	if _, err := QuasiGuards(bad, TDFuncDeps(1)); err == nil {
		t.Fatal("cross product accepted as quasi-guarded")
	}

	// Ground rules are trivially quasi-guarded.
	ground := MustParse(`p(a) :- q(a).`)
	guards, err = QuasiGuards(ground, nil)
	if err != nil {
		t.Fatal(err)
	}
	if guards[0] != -2 {
		t.Fatalf("ground rule guard = %d", guards[0])
	}
}

func TestEvalQuasiGuardedChain(t *testing.T) {
	p := MustParse(tdProgram)
	db := chainTD(12)
	out, err := EvalQuasiGuarded(p, db, TDFuncDeps(1))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Has("accept") {
		t.Fatal("accept not derived")
	}
	if got := out.Count("theta0"); got != 12 {
		t.Fatalf("|theta0| = %d, want 12", got)
	}
	// Remove one edge fact: the chain of types must break.
	db2 := chainTD(12)
	db3 := NewDB()
	for _, pred := range db2.Preds() {
		for _, tup := range db2.Tuples(pred) {
			if pred == "e" && tup[0] == "x5" {
				continue
			}
			db3.AddFact(pred, tup...)
		}
	}
	out, err = EvalQuasiGuarded(p, db3, TDFuncDeps(1))
	if err != nil {
		t.Fatal(err)
	}
	if out.Has("accept") {
		t.Fatal("accept derived despite broken chain")
	}
}

func TestGroundSizeLinear(t *testing.T) {
	p := MustParse(tdProgram)
	g1, err := Ground(p, chainTD(20), TDFuncDeps(1))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Ground(p, chainTD(40), TDFuncDeps(1))
	if err != nil {
		t.Fatal(err)
	}
	// Doubling the data should roughly double the ground program
	// (Theorem 4.4: |P'| = O(|P|·|A|)).
	if g2.Size() > 3*g1.Size() {
		t.Fatalf("ground size grew superlinearly: %d → %d", g1.Size(), g2.Size())
	}
	if g2.NumAtoms() <= g1.NumAtoms() {
		t.Fatal("atom count did not grow with data")
	}
}

func TestGroundRejectsIntensionalNegation(t *testing.T) {
	p := MustParse(`
a(X) :- base(X).
b(X) :- base(X), not a(X).
`)
	if _, err := Ground(p, NewDB(), nil); err == nil {
		t.Fatal("intensional negation accepted by quasi-guarded evaluation")
	}
}

func TestGroundNegatedExtensional(t *testing.T) {
	p := MustParse(`
good(V) :- bag(V, X0, X1), not broken(V).
accept :- root(V), good(V).
`)
	db := chainTD(5)
	db.AddFact("broken", "s2")
	out, err := EvalQuasiGuarded(p, db, TDFuncDeps(1))
	if err != nil {
		t.Fatal(err)
	}
	if out.Has("good", "s2") {
		t.Fatal("negated extensional atom ignored")
	}
	if got := out.Count("good"); got != 4 {
		t.Fatalf("|good| = %d, want 4", got)
	}
}

func TestGroundFactsHelper(t *testing.T) {
	p := MustParse(tdProgram)
	db := chainTD(3)
	g, err := Ground(p, db, TDFuncDeps(1))
	if err != nil {
		t.Fatal(err)
	}
	truth := g.Horn.Solve()
	facts := g.Facts(truth, "theta0")
	if len(facts) != 3 {
		t.Fatalf("Facts = %v", facts)
	}
	if facts[0][0] != "s0" {
		t.Fatalf("Facts not sorted: %v", facts)
	}
}

// shapesProgram holds the rule shapes a slot plan must get right, over
// the τ_td-like signature of chainTD: a repeated variable inside a join
// atom (as guard and later), a body constant, the neq builtin, a negated
// extensional atom, variable-free rules, 0-ary heads, and a guard that
// is not the first extensional atom.
const shapesProgram = `
theta0(V) :- bag(V, X0, X1), leaf(V), e(X0, X1).
theta0(V) :- bag(V, X0, X1), child1(V1, V), theta0(V1), bag(V1, Y0, Y1), e(X0, X1).
accept :- root(V), theta0(V).
same(V) :- bag(V, X, X).
nextsame(V) :- bag(V, X0, X1), child1(V, W), bag(W, Y, Y).
mark(V) :- bag(V, X0, X1), e(X0, x3).
split(V) :- bag(V, X0, X1), neq(X0, X1), not e(X0, X1).
late(V) :- e(X0, X1), bag(V, X0, X1), theta0(V).
flag :- leaf(s0), e(x0, x1).
start.
both :- flag, start, accept.
`

// randomChainDB is chainTD(n) with a random quarter of its edges dropped,
// plus a few self-loop edges and detached nodes with repeated bags.
func randomChainDB(rng *rand.Rand) *DB {
	n := rng.Intn(15) + 1
	full := chainTD(n)
	db := NewDB()
	for _, pred := range full.Preds() {
		for _, tup := range full.Tuples(pred) {
			if pred == "e" && rng.Intn(4) == 0 {
				continue // randomly drop edges
			}
			db.AddFact(pred, tup...)
		}
	}
	for i := rng.Intn(3); i > 0; i-- {
		x := "x" + itoa(rng.Intn(n+1))
		db.AddFact("e", x, x)
		db.AddFact("bag", "t"+itoa(i), x, x)
	}
	return db
}

// Property: the quasi-guarded evaluation agrees with semi-naive
// evaluation, on every intensional predicate, on random chain databases.
func TestQuickQuasiGuardedAgreesWithSeminaive(t *testing.T) {
	for _, src := range []string{tdProgram, shapesProgram} {
		p := MustParse(src)
		f := func(seed int64) bool {
			db := randomChainDB(rand.New(rand.NewSource(seed)))
			qg, err := EvalQuasiGuarded(p, db.Clone(), TDFuncDeps(1))
			if err != nil {
				t.Log(err)
				return false
			}
			sn, err := Eval(p, db)
			if err != nil {
				t.Log(err)
				return false
			}
			for pred := range p.IntensionalPreds() {
				got, want := qg.Tuples(pred), sn.Tuples(pred)
				if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
					t.Logf("%s: grounded %v, semi-naive %v", pred, got, want)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(41))}); err != nil {
			t.Fatal(err)
		}
	}
}

// clauseHash is an FNV-1a hash of a ground Horn program's clause list.
func clauseHash(p *horn.Program) uint64 {
	h := fnvOffset64
	mix := func(v int) {
		h ^= uint64(v)
		h *= fnvPrime64
	}
	mix(p.NumVars)
	for _, c := range p.Clauses {
		mix(c.Head)
		mix(len(c.Body))
		for _, b := range c.Body {
			mix(b)
		}
	}
	return h
}

// TestGroundTDProgramPinned pins tdProgram's ground program over
// chainTD(n) — atom count, size and clause list — to what the original
// map-binding grounder produced.
func TestGroundTDProgramPinned(t *testing.T) {
	p := MustParse(tdProgram)
	for _, pin := range []struct {
		n, atoms, size int
		hash           uint64
	}{
		{1, 2, 3, 0x886bb060009be22d},
		{2, 3, 5, 0x5aacb3a033a05a74},
		{7, 8, 15, 0x40836427f9eb3f4d},
		{20, 21, 41, 0x9677e30beaa2fc4},
		{64, 65, 129, 0x49d7ff4ca833bc0c},
	} {
		g, err := Ground(p, chainTD(pin.n), TDFuncDeps(1))
		if err != nil {
			t.Fatal(err)
		}
		if g.NumAtoms() != pin.atoms || g.Size() != pin.size || clauseHash(g.Horn) != pin.hash {
			t.Fatalf("n=%d: %d atoms, size %d, hash %#x; pinned %d, %d, %#x",
				pin.n, g.NumAtoms(), g.Size(), clauseHash(g.Horn), pin.atoms, pin.size, pin.hash)
		}
	}
}

// TestGroundStartsAtGuard pins that every rule is joined from its
// quasi-guard. In p(V) :- e(X,Y), e(Y,Z), bag(V,X,Y,Z) the guard is the
// bag atom; a join from the first e atom enumerates every pair of edges
// through the star's centre, n² instances for n clauses.
func TestGroundStartsAtGuard(t *testing.T) {
	const n = 20000
	p := MustParse(`p(V) :- e(X, Y), e(Y, Z), bag(V, X, Y, Z).`)
	db := NewDB()
	for i := 0; i < n; i++ {
		leaf := "l" + itoa(i)
		db.AddFact("e", "c", leaf)
		db.AddFact("e", leaf, "c")
		db.AddFact("bag", "s"+itoa(i), leaf, "c", leaf)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	g, err := GroundCtx(ctx, p, db, TDFuncDeps(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Horn.Clauses) != n || g.NumAtoms() != n {
		t.Fatalf("%d clauses over %d atoms, want %d of each", len(g.Horn.Clauses), g.NumAtoms(), n)
	}
}

func TestDBBasics(t *testing.T) {
	db := NewDB()
	if db.AddFact("p", "a") != true {
		t.Fatal("new fact not reported")
	}
	if db.AddFact("p", "a") != false {
		t.Fatal("duplicate fact reported as new")
	}
	if db.Has("p", "zz") || db.Has("q", "a") {
		t.Fatal("Has wrong")
	}
	if db.NumFacts() != 1 || db.NumConsts() != 1 {
		t.Fatal("counts wrong")
	}
	if db.ConstName(0) != "a" || db.ConstName(99) != "#99" {
		t.Fatal("ConstName wrong")
	}
	c := db.Clone()
	c.AddFact("p", "b")
	if db.Has("p", "b") {
		t.Fatal("Clone shares state")
	}
	if got := FormatBindings("p", c.Tuples("p")); got != "p(a).\np(b)." {
		t.Fatalf("FormatBindings = %q", got)
	}
}
