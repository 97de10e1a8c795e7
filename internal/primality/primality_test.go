package primality

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/mso"
	"repro/internal/schema"
	"repro/internal/stage"
	"repro/internal/tree"
	"repro/internal/workload"
)

func runningExample() *schema.Schema {
	return schema.MustParse(`
attrs a b c d e g
a b -> c
c -> b
c d -> e
d e -> g
g -> e
`)
}

func TestDecideRunningExample(t *testing.T) {
	// The paper (Example 2.1): a, b, c, d prime; e, g not prime.
	s := runningExample()
	in, err := NewInstance(s)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"a": true, "b": true, "c": true, "d": true, "e": false, "g": false}
	for name, isPrime := range want {
		a, _ := s.Attr(name)
		got, err := in.Decide(a)
		if err != nil {
			t.Fatalf("Decide(%s): %v", name, err)
		}
		if got != isPrime {
			t.Errorf("Decide(%s) = %v, want %v", name, got, isPrime)
		}
	}
}

func TestEnumerateRunningExample(t *testing.T) {
	s := runningExample()
	primes, err := Primes(s)
	if err != nil {
		t.Fatal(err)
	}
	brute, err := s.PrimesBruteForce()
	if err != nil {
		t.Fatal(err)
	}
	if !primes.Equal(brute) {
		t.Fatalf("Enumerate = %v, brute force = %v", primes.Elems(), brute.Elems())
	}
}

func TestGroundDecideRunningExample(t *testing.T) {
	s := runningExample()
	in, err := NewInstance(s)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < s.NumAttrs(); a++ {
		got, err := in.GroundDecide(a)
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.IsPrimeBruteForce(a)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("GroundDecide(%s) = %v, want %v", s.AttrName(a), got, want)
		}
	}
}

func TestEdgeCases(t *testing.T) {
	// No FDs: every attribute is prime (the only key is R itself).
	s := schema.MustParse("attrs a b c")
	in, err := NewInstance(s)
	if err != nil {
		t.Fatal(err)
	}
	primes, err := in.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if primes.Len() != 3 {
		t.Fatalf("primes = %v, want all", primes.Elems())
	}

	// Single attribute determined by nothing: prime.
	s = schema.MustParse("attrs a")
	ok, err := IsPrime(s, "a")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("sole attribute not prime")
	}
	if _, err := IsPrime(s, "zz"); err == nil {
		t.Fatal("unknown attribute accepted")
	}

	// a → b: key is {a}; b is not prime.
	s = schema.MustParse("a -> b")
	in, err = NewInstance(s)
	if err != nil {
		t.Fatal(err)
	}
	primes, err = in.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	aIdx, _ := s.Attr("a")
	bIdx, _ := s.Attr("b")
	if !primes.Has(aIdx) || primes.Has(bIdx) {
		t.Fatalf("primes = %v", primes.Elems())
	}

	// Cyclic FDs: a → b, b → a. Keys: {a}, {b}; both prime.
	s = schema.MustParse("a -> b\nb -> a")
	primes, err = Primes(s)
	if err != nil {
		t.Fatal(err)
	}
	if primes.Len() != 2 {
		t.Fatalf("cyclic primes = %v", primes.Elems())
	}
}

func TestAgainstMSO(t *testing.T) {
	// Cross-validate the DP against the naive MSO evaluation of the
	// Example 2.6 formula on a small schema (the MSO route is exponential,
	// so the schema must stay tiny).
	s := schema.MustParse("a -> b\nc -> b")
	st := s.ToStructure()
	selected, err := mso.Query(st, mso.Primality(), "x", nil)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInstance(s)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < s.NumAttrs(); a++ {
		e, _ := st.Elem(s.AttrName(a))
		got, err := in.Decide(a)
		if err != nil {
			t.Fatal(err)
		}
		if got != selected.Has(e) {
			t.Errorf("Decide(%s) = %v, MSO = %v", s.AttrName(a), got, selected.Has(e))
		}
	}
}

func randomSchema(rng *rand.Rand) *schema.Schema {
	s := schema.New()
	n := rng.Intn(5) + 2
	for i := 0; i < n; i++ {
		s.AddAttr(string(rune('a' + i)))
	}
	for k := rng.Intn(n + 2); k > 0; k-- {
		var lhs []int
		for a := 0; a < n; a++ {
			if rng.Intn(3) == 0 {
				lhs = append(lhs, a)
			}
		}
		rhs := rng.Intn(n)
		if err := s.AddFD("", lhs, rhs); err != nil {
			panic(err)
		}
	}
	return s
}

// Property: Decide agrees with brute force on random schemas.
func TestQuickDecideAgainstBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSchema(rng)
		in, err := NewInstance(s)
		if err != nil {
			return false
		}
		a := rng.Intn(s.NumAttrs())
		got, err := in.Decide(a)
		if err != nil {
			return false
		}
		want, err := s.IsPrimeBruteForce(a)
		if err != nil {
			return false
		}
		return got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(67))}); err != nil {
		t.Fatal(err)
	}
}

// Property: linear enumeration == naive quadratic enumeration == brute
// force on random schemas.
func TestQuickEnumerationAgreement(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSchema(rng)
		in, err := NewInstance(s)
		if err != nil {
			return false
		}
		fast, err := in.Enumerate()
		if err != nil {
			return false
		}
		naive, err := in.EnumerateNaive()
		if err != nil {
			return false
		}
		brute, err := s.PrimesBruteForce()
		if err != nil {
			return false
		}
		return fast.Equal(naive) && fast.Equal(brute)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(71))}); err != nil {
		t.Fatal(err)
	}
}

// Property: the grounding path agrees with the DP path.
func TestQuickGroundAgreesWithDP(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSchema(rng)
		in, err := NewInstance(s)
		if err != nil {
			return false
		}
		a := rng.Intn(s.NumAttrs())
		viaDP, err := in.Decide(a)
		if err != nil {
			return false
		}
		viaGround, err := in.GroundDecide(a)
		if err != nil {
			return false
		}
		return viaDP == viaGround
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(73))}); err != nil {
		t.Fatal(err)
	}
}

// TestFigure6TableEntriesLinear states the complexity claim behind
// Fig. 6 and Table 1 (E1) as an exact count rather than a timing. A nice
// node's table holds at most one entry per solve state of its bag, and a
// state gives each of the k = w+1 bag elements one of at most four roles
// (an attribute in Y, in Co∖DC or in DC; an FD in or out of FY and of
// FC) and orders Co, so a node holds at most 4^k·k! entries, a bound of
// the width alone. Over Table 1's balanced workloads of doubling size,
// the entries per attribute stay flat. The entries are the budget's
// table-entry tally for DecideCtx, which is deterministic. (Seed 1 reads
// 11.67 entries per nice node at w = 3 at every size, against a bound
// of 6,144, and 32.6–34.9 per attribute.)
func TestFigure6TableEntriesLinear(t *testing.T) {
	var perAttr []float64
	for _, nFD := range []int{8, 16, 32, 64, 128} {
		s, d, err := workload.BalancedSchema(nFD, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		in, err := NewInstanceWithDecomposition(s, d)
		if err != nil {
			t.Fatal(err)
		}
		// The budget tallies table entries only under a positive cap.
		b := &stage.Budget{MaxTableEntries: 1 << 40}
		if _, err := in.DecideCtx(stage.WithBudget(context.Background(), b), 0); err != nil {
			t.Fatal(err)
		}
		_, _, entries := b.Used()
		// The nice form DecideCtx solves on: rooted at a bag holding
		// attribute 0.
		rooted := in.raw.Clone()
		rooted.ReRoot(rooted.NodeWithElem(in.ctx.attElem[0]))
		nice, err := tree.NormalizeNice(rooted, tree.NiceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		k := nice.Width() + 1
		bound := math.Pow(4, float64(k)) * math.Gamma(float64(k+1))
		perNode := float64(entries) / float64(nice.Len())
		t.Logf("#FD=%d: %d attributes, width %d, %d nice nodes, %d entries: %.2f per node, %.2f per attribute",
			nFD, s.NumAttrs(), k-1, nice.Len(), entries, perNode, float64(entries)/float64(s.NumAttrs()))
		if perNode > bound {
			t.Errorf("#FD=%d: %.2f entries per nice node exceed 4^k·k! = %.0f (k = %d)", nFD, perNode, bound, k)
		}
		perAttr = append(perAttr, float64(entries)/float64(s.NumAttrs()))
	}
	if lo, hi := slices.Min(perAttr), slices.Max(perAttr); hi > 2*lo {
		t.Errorf("entries per attribute range over %.2f–%.2f across sizes, more than a factor of 2", lo, hi)
	}
}
