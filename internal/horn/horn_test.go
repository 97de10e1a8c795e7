package horn

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestSimpleChain(t *testing.T) {
	var p Program
	p.AddClause(0)       // fact 0
	p.AddClause(1, 0)    // 1 ← 0
	p.AddClause(2, 1, 0) // 2 ← 1,0
	p.AddClause(3, 4)    // 3 ← 4 (underivable)
	m := p.Solve()
	want := []bool{true, true, true, false, false}
	for i, w := range want {
		if m[i] != w {
			t.Fatalf("var %d = %v, want %v", i, m[i], w)
		}
	}
	if p.Size() != 1+2+3+2 {
		t.Fatalf("Size = %d", p.Size())
	}
}

// TestClauseAccessors pins the flat clause storage: Len and Clause give
// back every clause as added, bodies are copied, and Size counts heads
// and body literals.
func TestClauseAccessors(t *testing.T) {
	var p Program
	body := []int{4, 2}
	p.AddClause(3)
	p.AddClause(1, body...)
	p.AddClause(0, 1, 1, 3)
	body[0] = 9
	want := []struct {
		head int
		body []int32
	}{{3, []int32{}}, {1, []int32{4, 2}}, {0, []int32{1, 1, 3}}}
	if p.Len() != len(want) || p.Size() != 3+5 || p.NumVars != 5 {
		t.Fatalf("Len %d, Size %d, NumVars %d; want 3, 8, 5", p.Len(), p.Size(), p.NumVars)
	}
	for i, w := range want {
		head, body := p.Clause(i)
		if head != w.head || !reflect.DeepEqual(append([]int32{}, body...), w.body) {
			t.Fatalf("clause %d = %d ← %v, want %d ← %v", i, head, body, w.head, w.body)
		}
	}
}

func TestDuplicateBodyLiterals(t *testing.T) {
	var p Program
	p.AddClause(0)
	p.AddClause(1, 0, 0, 0)
	m := p.Solve()
	if !m[1] {
		t.Fatal("duplicate body literals break propagation")
	}
}

func TestCycle(t *testing.T) {
	var p Program
	p.AddClause(0, 1)
	p.AddClause(1, 0)
	m := p.Solve()
	if m[0] || m[1] {
		t.Fatal("cyclic support derived without base fact")
	}
	p.AddClause(0)
	m = p.Solve()
	if !m[0] || !m[1] {
		t.Fatal("cycle with base fact not derived")
	}
}

func TestEmpty(t *testing.T) {
	var p Program
	if got := p.Solve(); len(got) != 0 {
		t.Fatal("empty program should have empty model")
	}
}

// Property: LTUR and the naive fixpoint agree on random programs.
func TestQuickSolveAgreesWithNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nVars := rng.Intn(30) + 1
		var p Program
		p.NumVars = nVars
		nClauses := rng.Intn(60)
		for i := 0; i < nClauses; i++ {
			head := rng.Intn(nVars)
			body := make([]int, rng.Intn(4))
			for j := range body {
				body[j] = rng.Intn(nVars)
			}
			p.AddClause(head, body...)
		}
		a, b := p.Solve(), p.SolveNaive()
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Fatal(err)
	}
}
