package fta

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mso"
)

func TestMinimizePreservesLanguage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, a := range []*Automaton{evenAs(), hasA(), Determinize(hasA()), Complement(evenAs())} {
		m := Minimize(a)
		if m.NumStates > Determinize(a).NumStates {
			t.Fatal("Minimize grew the automaton")
		}
		for i := 0; i < 100; i++ {
			tr := randTree(rng, 4)
			if m.Accepts(tr) != a.Accepts(tr) {
				t.Fatal("Minimize changed the language")
			}
		}
	}
}

func TestMinimizeCollapsesRedundantStates(t *testing.T) {
	// A product of an automaton with itself has a quadratic state space
	// but the same language; minimization must collapse it back down to
	// the size of the minimized original.
	a := Determinize(evenAs())
	p, err := Product(a, a)
	if err != nil {
		t.Fatal(err)
	}
	mOrig := Minimize(a)
	mProd := Minimize(Trim(p))
	if Trim(mProd).NumStates != Trim(mOrig).NumStates {
		t.Fatalf("product minimized to %d states, original to %d",
			Trim(mProd).NumStates, Trim(mOrig).NumStates)
	}
}

func TestCompileWithMinimize(t *testing.T) {
	f := mso.MustParse("forall x exists y (child1(x,y) -> a(y))")
	plain, sPlain, err := Compile(f, treeLabels)
	if err != nil {
		t.Fatal(err)
	}
	minimized, sMin, err := CompileWith(f, treeLabels, CompileOpts{Minimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if sMin.MaxStates > sPlain.MaxStates {
		t.Fatalf("minimizing compilation had larger intermediates: %d vs %d",
			sMin.MaxStates, sPlain.MaxStates)
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 60; i++ {
		tr := randTree(rng, 3)
		if plain.Accepts(tr) != minimized.Accepts(tr) {
			t.Fatal("minimizing compilation changed the language")
		}
	}
}

// Property: Minimize preserves the language of compiled random formulas.
func TestQuickMinimizeCompiled(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := randTreeFormula(rng, 2, nil, nil)
		a, _, err := Compile(f, treeLabels)
		if err != nil {
			return false
		}
		m := Minimize(a)
		for i := 0; i < 8; i++ {
			tr := randTree(rng, 3)
			if m.Accepts(tr) != a.Accepts(tr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(113))}); err != nil {
		t.Fatal(err)
	}
}

// randDFTA returns a random complete deterministic automaton with n
// states over k labels, each state final with probability ½.
func randDFTA(rng *rand.Rand, n, k int) *Automaton {
	a := NewAutomaton(k, n)
	for label := 0; label < k; label++ {
		a.AddLeaf(label, rng.Intn(n))
		for s1 := 0; s1 < n; s1++ {
			for s2 := 0; s2 < n; s2++ {
				a.AddBin(label, s1, s2, rng.Intn(n))
			}
		}
	}
	for s := 0; s < n; s++ {
		if rng.Intn(2) == 0 {
			a.SetFinal(s)
		}
	}
	return a
}

// randLabeledTree is randTree over k labels.
func randLabeledTree(rng *rand.Rand, k, depth int) *Tree {
	if depth == 0 || rng.Intn(3) == 0 {
		return Leaf(rng.Intn(k))
	}
	return Node(rng.Intn(k), randLabeledTree(rng, k, depth-1), randLabeledTree(rng, k, depth-1))
}

// TestMinimizeRandomDFTAs: on 400 random complete DFTAs with 2–6 states
// over 1–2 labels, every quotient must be deterministic and accept
// exactly the trees its input accepts.
func TestMinimizeRandomDFTAs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const automata = 400
	nondet, changed := 0, 0
	for i := 0; i < automata; i++ {
		a := randDFTA(rng, 2+rng.Intn(5), 1+rng.Intn(2))
		m := Minimize(a)
		if !isDeterministic(m) {
			nondet++
		}
		for j := 0; j < 60; j++ {
			if tr := randLabeledTree(rng, a.NumLabels, 6); m.Accepts(tr) != a.Accepts(tr) {
				changed++
				break
			}
		}
	}
	if nondet > 0 || changed > 0 {
		t.Fatalf("of %d quotients, %d are nondeterministic and %d accept another language", automata, nondet, changed)
	}
}
