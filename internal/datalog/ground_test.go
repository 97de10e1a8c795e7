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

// prefixProgram holds rules whose plans share prefixes — the guard join
// and the bound tests and builtins after it — over chainTD's signature.
// Rules sharing a guard differ only in a test's polarity, a constant
// argument, a repeated variable, or a builtin; some prefixes extend
// others (d0 before pe, so a node's rows are computed with its
// ancestors'); a guard has constants; an intensional literal ends a
// prefix; and rules whose plans start with a fully bound atom before
// the guard (0-ary extensional and intensional atoms, a constant-only
// atom) have none.
const prefixProgram = `
d0(V) :- bag(V, X0, X1), e(X0, X1), not e(X1, X0), leaf(V).
pe(V) :- bag(V, X0, X1), e(X0, X1).
pn(V) :- bag(V, X0, X1), not e(X0, X1).
c3(V) :- bag(V, X0, X1), e(X0, x3).
c4(V) :- bag(V, X0, X1), e(X0, x4).
rs(V) :- bag(V, X0, X1), e(X0, X0).
rg(V) :- bag(V, X, X), leaf(V).
rf(V) :- bag(V, X0, X1), leaf(V).
b0(V) :- bag(V, X0, X1), neq(X0, X1).
b1(V) :- bag(V, X0, X1), not neq(X0, X1).
b2(V) :- bag(V, X0, X1), neq(X0, x2).
b3(V) :- bag(V, X0, X1), neq(X0, x3).
nb(V) :- bag(V, X0, X1), not broken(V), e(X0, X1).
g2(V) :- bag(V, x2, X1), e(x2, X1).
g3(V) :- bag(V, x3, X1), e(x3, X1).
d1(V) :- bag(V, X0, X1), e(X0, X1), not e(X1, X0), not leaf(V), child1(W, V), d0(W).
d1(V) :- bag(V, X0, X1), e(X0, X1), not e(X1, X0), not leaf(V), child1(W, V), d1(W).
lit(V) :- bag(V, X0, X1), pe(V), e(X1, X0).
lit(V) :- bag(V, X0, X1), pn(V), not e(X1, X0).
z0 :- flag0, bag(V, X0, X1), e(X0, X1).
z1(V) :- start, bag(V, X0, X1), leaf(V).
z2(V) :- e(x0, x1), bag(V, X0, X1), not e(X0, X1).
start.
`

// randomChainDB is chainTD(n) with a random quarter of its edges dropped,
// plus a few self-loop edges and detached nodes with repeated bags, and
// at random the 0-ary fact flag0.
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
	if rng.Intn(2) == 0 {
		db.AddFact("flag0")
	}
	return db
}

// Property: the quasi-guarded evaluation agrees with semi-naive
// evaluation and with the naive oracle, on every intensional predicate,
// on random chain databases.
func TestQuickQuasiGuardedAgreesWithSeminaive(t *testing.T) {
	for _, src := range []string{tdProgram, shapesProgram, prefixProgram} {
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
			nv, err := naiveEval(p, db)
			if err != nil {
				t.Log(err)
				return false
			}
			for pred := range p.IntensionalPreds() {
				got := qg.Tuples(pred)
				for name, want := range map[string][][]string{"semi-naive": sn.Tuples(pred), "naive": nv.Tuples(pred)} {
					if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
						t.Logf("%s: grounded %v, %s %v", pred, got, name, want)
						return false
					}
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
	for i := 0; i < p.Len(); i++ {
		head, body := p.Clause(i)
		mix(head)
		mix(len(body))
		for _, b := range body {
			mix(int(b))
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
	if g.Horn.Len() != n || g.NumAtoms() != n {
		t.Fatalf("%d clauses over %d atoms, want %d of each", g.Horn.Len(), g.NumAtoms(), n)
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

// TestGrounderPrefixTrie pins how NewGrounder files prefixProgram's
// plans: rules that differ in a test's polarity or constant get sibling
// nodes under one shared guard join, a longer prefix extends a shorter
// one, an intensional literal ends a prefix, and plans starting with a
// fully bound atom have the empty prefix.
func TestGrounderPrefixTrie(t *testing.T) {
	p := MustParse(prefixProgram)
	gr, err := NewGrounder(p, TDFuncDeps(1))
	if err != nil {
		t.Fatal(err)
	}
	node := map[string]groundRule{}
	for ri, r := range p.Rules {
		if _, seen := node[r.Head.Pred]; !seen {
			node[r.Head.Pred] = gr.rules[ri]
		}
	}
	parent := func(pred string) int32 { return gr.nodes[node[pred].node].parent }
	for _, pair := range [][2]string{{"pe", "pn"}, {"c3", "c4"}, {"pe", "rs"}, {"b0", "b1"}, {"b2", "b3"}} {
		a, b := node[pair[0]].node, node[pair[1]].node
		if a == b || parent(pair[0]) != parent(pair[1]) {
			t.Errorf("%s and %s: nodes %d and %d under %d and %d, want siblings", pair[0], pair[1], a, b, parent(pair[0]), parent(pair[1]))
		}
	}
	join := gr.nodes[node["pe"].node].join
	for _, pred := range []string{"d0", "pn", "c3", "rf", "b2", "nb", "d1", "lit"} {
		if got := gr.nodes[node[pred].node].join; got != join {
			t.Errorf("%s: guard join %d, want the shared %d", pred, got, join)
		}
	}
	for _, pred := range []string{"rg", "g2", "g3"} {
		if got := gr.nodes[node[pred].node].join; got == join {
			t.Errorf("%s: shares the guard join of bag(V, X0, X1)", pred)
		}
	}
	if n := node["d0"].node; gr.nodes[gr.nodes[n].parent].parent != node["pe"].node {
		t.Errorf("d0's prefix does not extend pe's")
	}
	if got := node["lit"]; got.node != join || got.skip != 1 {
		t.Errorf("lit: node %d, %d steps; want the guard join alone", got.node, got.skip)
	}
	for _, pred := range []string{"z0", "z1", "z2", "start"} {
		if got := node[pred]; got.node != 0 || got.skip != 0 {
			t.Errorf("%s: node %d, %d steps; want the empty prefix", pred, got.node, got.skip)
		}
	}
}
