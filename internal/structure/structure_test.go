package structure

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
)

func TestSignature(t *testing.T) {
	sig, err := NewSignature(Predicate{"e", 2}, Predicate{"v", 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := sig.Arity("e"); got != 2 {
		t.Fatalf("Arity(e) = %d", got)
	}
	if got := sig.Arity("nope"); got != -1 {
		t.Fatalf("Arity(nope) = %d", got)
	}
	i, p, ok := sig.Lookup("v")
	if !ok || i != 1 || p.Arity != 1 {
		t.Fatalf("Lookup(v) = %d,%v,%v", i, p, ok)
	}
	if _, err := NewSignature(Predicate{"e", 2}, Predicate{"e", 1}); err == nil {
		t.Fatal("duplicate predicate accepted")
	}
	if _, err := NewSignature(Predicate{"", 0}); err == nil {
		t.Fatal("empty predicate name accepted")
	}
	if _, err := NewSignature(Predicate{"p", -1}); err == nil {
		t.Fatal("negative arity accepted")
	}
	ext, err := sig.Extend(Predicate{"root", 1})
	if err != nil {
		t.Fatal(err)
	}
	if ext.Arity("root") != 1 || ext.Arity("e") != 2 {
		t.Fatal("Extend lost predicates")
	}
}

func TestAddAndQuery(t *testing.T) {
	sig := MustSignature(Predicate{"e", 2})
	st := New(sig)
	a := st.AddElem("a")
	b := st.AddElem("b")
	if again := st.AddElem("a"); again != a {
		t.Fatal("AddElem not idempotent")
	}
	if err := st.AddTuple("e", a, b); err != nil {
		t.Fatal(err)
	}
	if err := st.AddTuple("e", a, b); err != nil { // duplicate is a no-op
		t.Fatal(err)
	}
	if len(st.Tuples("e")) != 1 {
		t.Fatal("duplicate tuple stored twice")
	}
	if !st.Has("e", a, b) || st.Has("e", b, a) {
		t.Fatal("Has wrong")
	}
	if st.Has("nope", a) {
		t.Fatal("Has on unknown predicate")
	}
	if err := st.AddTuple("e", a); err == nil {
		t.Fatal("arity violation accepted")
	}
	if err := st.AddTuple("e", a, 99); err == nil {
		t.Fatal("out-of-range element accepted")
	}
	if err := st.AddTuple("nope", a, b); err == nil {
		t.Fatal("unknown predicate accepted")
	}
	if st.NumTuples() != 1 || st.Size() != 2 {
		t.Fatal("NumTuples/Size wrong")
	}
}

// TestHasDoesNotAllocate pins that a membership probe builds its key on
// the stack: the game backend and the naive MSO checker call HasIdx once
// per truth-table entry. The elements have three digits, past the
// small-integer strings strconv keeps preallocated.
func TestHasDoesNotAllocate(t *testing.T) {
	st := New(MustSignature(Predicate{"e", 2}, Predicate{"c", 1}))
	for i := 0; i < 1000; i++ {
		st.AddElem("v" + strconv.Itoa(i))
	}
	st.MustAddTuple("e", 998, 999)
	st.MustAddTuple("c", 700)
	pi, _, _ := st.Sig().Lookup("e")
	in, out := []int{998, 999}, []int{999, 998}
	allocs := testing.AllocsPerRun(100, func() {
		if !st.Has("e", 998, 999) || st.Has("c", 701) || !st.HasIdx(pi, in) || st.HasIdx(pi, out) {
			t.Fatal("Has or HasIdx answered wrong")
		}
	})
	if allocs != 0 {
		t.Fatalf("Has and HasIdx make %.0f allocations per four probes, want 0", allocs)
	}
}

// runningExample builds the τ-structure of Example 2.2: schema
// R = abcdeg, F = {f1: ab→c, f2: c→b, f3: cd→e, f4: de→g, f5: g→e}.
func runningExample(t *testing.T) *Structure {
	t.Helper()
	src := `
% Example 2.2
att(a). att(b). att(c). att(d). att(e). att(g).
fd(f1). fd(f2). fd(f3). fd(f4). fd(f5).
lh(a,f1). lh(b,f1). lh(c,f2). lh(c,f3). lh(d,f3). lh(d,f4). lh(e,f4). lh(g,f5).
rh(c,f1). rh(b,f2). rh(e,f3). rh(g,f4). rh(e,f5).
`
	st, err := Parse(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestRunningExample(t *testing.T) {
	st := runningExample(t)
	if st.Size() != 11 { // 6 attributes + 5 FDs
		t.Fatalf("Size = %d, want 11", st.Size())
	}
	if got := len(st.Tuples("lh")); got != 8 {
		t.Fatalf("|lh| = %d, want 8", got)
	}
	if got := len(st.Tuples("rh")); got != 5 {
		t.Fatalf("|rh| = %d, want 5", got)
	}
	c, _ := st.Elem("c")
	f1, _ := st.Elem("f1")
	if !st.Has("rh", c, f1) {
		t.Fatal("rh(c,f1) missing")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"e(a,b",         // missing paren
		"e(a,,b).",      // empty arg
		"(a).",          // empty predicate
		"e(a). e(a,b).", // inconsistent arity (inferred)
		"e%(a).",        // bad name
	}
	for _, src := range cases {
		if _, err := Parse(src, nil); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
	// With fixed signature: unknown predicate and wrong arity rejected.
	sig := MustSignature(Predicate{"e", 2})
	if _, err := Parse("f(a).", sig); err == nil {
		t.Error("unknown predicate accepted under fixed signature")
	}
	if _, err := Parse("e(a).", sig); err == nil {
		t.Error("wrong arity accepted under fixed signature")
	}
}

func TestParseZeroAryAndDom(t *testing.T) {
	st, err := Parse("dom x y.\nflag. p(x).", nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 2 {
		t.Fatalf("Size = %d, want 2", st.Size())
	}
	if !st.Has("flag") {
		t.Fatal("0-ary fact missing")
	}
	if _, ok := st.Elem("y"); !ok {
		t.Fatal("isolated dom element missing")
	}
}

func TestRoundTrip(t *testing.T) {
	st := runningExample(t)
	st2, err := Parse(st.String(), st.Sig())
	if err != nil {
		t.Fatal(err)
	}
	if st2.Size() != st.Size() || st2.NumTuples() != st.NumTuples() {
		t.Fatal("round trip changed size")
	}
	for _, p := range st.Sig().Predicates() {
		for _, tup := range st.Tuples(p.Name) {
			mapped := make([]int, len(tup))
			for i, e := range tup {
				id, ok := st2.Elem(st.Name(e))
				if !ok {
					t.Fatalf("element %s lost", st.Name(e))
				}
				mapped[i] = id
			}
			if !st2.Has(p.Name, mapped...) {
				t.Fatalf("tuple %s(%v) lost", p.Name, st.Names(tup))
			}
		}
	}
}

func TestInduced(t *testing.T) {
	st := runningExample(t)
	b, _ := st.Elem("b")
	c, _ := st.Elem("c")
	f1, _ := st.Elem("f1")
	f2, _ := st.Elem("f2")
	sub, m := st.Induced(bitset.FromSlice([]int{b, c, f1, f2}))
	if sub.Size() != 4 {
		t.Fatalf("induced size = %d", sub.Size())
	}
	// lh(b,f1), lh(c,f2), rh(c,f1), rh(b,f2) survive; lh(a,f1) does not.
	if got := len(sub.Tuples("lh")); got != 2 {
		t.Fatalf("|lh| induced = %d, want 2", got)
	}
	if got := len(sub.Tuples("rh")); got != 2 {
		t.Fatalf("|rh| induced = %d, want 2", got)
	}
	if !sub.Has("lh", m[b], m[f1]) {
		t.Fatal("lh(b,f1) missing in induced substructure")
	}
	if sub.Name(m[b]) != "b" {
		t.Fatal("names not preserved")
	}
}

func TestAtomicTypeKey(t *testing.T) {
	sig := MustSignature(Predicate{"e", 2})
	a := New(sig)
	x, y := a.AddElem("x"), a.AddElem("y")
	a.MustAddTuple("e", x, y)

	b := New(sig)
	u, v := b.AddElem("u"), b.AddElem("v")
	b.MustAddTuple("e", u, v)

	if a.AtomicTypeKey([]int{x, y}) != b.AtomicTypeKey([]int{u, v}) {
		t.Fatal("isomorphic tuples have different atomic type keys")
	}
	if a.AtomicTypeKey([]int{x, y}) == a.AtomicTypeKey([]int{y, x}) {
		t.Fatal("reversed edge has same atomic type key")
	}
	// Equality pattern matters.
	if a.AtomicTypeKey([]int{x, x}) == a.AtomicTypeKey([]int{x, y}) {
		t.Fatal("equality pattern ignored")
	}
}

func TestCloneIndependent(t *testing.T) {
	st := runningExample(t)
	c := st.Clone()
	c.AddFact("att", "zz")
	if _, ok := st.Elem("zz"); ok {
		t.Fatal("Clone shares domain")
	}
	if c.NumTuples() != st.NumTuples()+1 {
		t.Fatal("Clone tuple count wrong")
	}
}

// Property: parsing the printed form of a random structure is lossless.
func TestQuickRoundTrip(t *testing.T) {
	sig := MustSignature(Predicate{"e", 2}, Predicate{"v", 1})
	f := func(edges [][2]uint8, marks []uint8) bool {
		st := New(sig)
		for i := 0; i < 6; i++ {
			st.AddElem("n" + string(rune('a'+i)))
		}
		for _, e := range edges {
			st.MustAddTuple("e", int(e[0])%6, int(e[1])%6)
		}
		for _, m := range marks {
			st.MustAddTuple("v", int(m)%6)
		}
		st2, err := Parse(st.String(), sig)
		if err != nil {
			return false
		}
		return st2.String() == st.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestStringDeterministic(t *testing.T) {
	st := runningExample(t)
	if st.String() != st.String() {
		t.Fatal("String not deterministic")
	}
	if !strings.Contains(st.String(), "lh(a,f1).") {
		t.Fatal("String missing fact")
	}
}
