package session

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/solver"
	"repro/internal/stage"
)

// freeSelect is the free-selection algebra over a structure's
// decomposition: every subset of the elements is a solution, each
// selected element costs 1. Counting it yields exactly 2^n for a
// structure with n elements, which makes the memoized answers easy to
// pin without a second oracle.
type freeSelect struct{}

func (freeSelect) Name() string { return "free-select" }

func (freeSelect) Leaf(dst []solver.Out[uint64], _ int, bag []int) []solver.Out[uint64] {
	for m := uint64(0); m < 1<<uint(len(bag)); m++ {
		cost := 0
		for p := range bag {
			cost += int(m >> uint(p) & 1)
		}
		dst = append(dst, solver.Out[uint64]{State: m, Cost: cost})
	}
	return dst
}

func (freeSelect) Introduce(dst []solver.Out[uint64], _ int, bag []int, elem int, child uint64) []solver.Out[uint64] {
	p := solver.Position(bag, elem)
	w := solver.Width(1)
	return append(dst,
		solver.Out[uint64]{State: w.Insert(child, p, 0)},
		solver.Out[uint64]{State: w.Insert(child, p, 1), Cost: 1},
	)
}

func (freeSelect) Forget(dst []solver.Out[uint64], _ int, bag []int, elem int, child uint64) []solver.Out[uint64] {
	childBag := insertSorted(bag, elem)
	return append(dst, solver.Out[uint64]{State: solver.Width(1).Drop(child, solver.Position(childBag, elem))})
}

func (freeSelect) Join(dst []solver.Out[uint64], _ int, bag []int, s1, s2 uint64) []solver.Out[uint64] {
	if s1 != s2 {
		return dst
	}
	dup := 0
	for p := range bag {
		dup += int(s1 >> uint(p) & 1)
	}
	return append(dst, solver.Out[uint64]{State: s1, Cost: -dup})
}

func (freeSelect) Accept(int, []int, uint64) bool { return true }

// TestSolverMemoization pins the cache guarantee: repeating each mode
// on an unchanged structure solves once and hits the cache after.
func TestSolverMemoization(t *testing.T) {
	st := randColored(rand.New(rand.NewSource(53)), 7)
	s := NewWithCache(st, NewProgramCache())
	ctx := context.Background()

	want := new(big.Int).Lsh(big.NewInt(1), 7) // 2^7 subsets

	for i := 0; i < 3; i++ {
		ok, err := SolveDecide(ctx, s, freeSelect{})
		if err != nil || !ok {
			t.Fatalf("decide #%d: %v %v", i, ok, err)
		}
		n, err := SolveCount(ctx, s, freeSelect{})
		if err != nil || n.Cmp(want) != 0 {
			t.Fatalf("count #%d: %v, want %v (%v)", i, n, want, err)
		}
		der, err := SolveOptimize(ctx, s, freeSelect{})
		if err != nil || der == nil || der.Value != 0 {
			t.Fatalf("optimize #%d: %v, %v", i, der, err)
		}
	}
	stats := s.Stats()
	if stats.SolverSolves != 3 {
		t.Errorf("SolverSolves = %d, want 3 (one per mode)", stats.SolverSolves)
	}
	if stats.SolverCacheHits != 6 {
		t.Errorf("SolverCacheHits = %d, want 6", stats.SolverCacheHits)
	}

	// The count is caller-owned: mutating it must not poison the cache.
	n, _ := SolveCount(ctx, s, freeSelect{})
	n.SetInt64(-1)
	n2, err := SolveCount(ctx, s, freeSelect{})
	if err != nil || n2.Cmp(want) != 0 {
		t.Fatalf("cache poisoned by caller mutation: %v (%v)", n2, err)
	}
	// So is the optimum.
	opt, _ := SolveOptimize(ctx, s, freeSelect{})
	opt.Value = -1
	opt2, err := SolveOptimize(ctx, s, freeSelect{})
	if err != nil || opt2 == nil || opt2.Value != 0 {
		t.Fatalf("optimum cache poisoned by caller mutation: %+v (%v)", opt2, err)
	}
}

// noneAccepted is freeSelect with no accepting root state: every mode
// finds it infeasible.
type noneAccepted struct{ freeSelect }

func (noneAccepted) Name() string                   { return "none-accepted" }
func (noneAccepted) Accept(int, []int, uint64) bool { return false }

// TestSolverCacheHoldsOptimumOnly pins what an optimize entry keeps
// resident: a *solver.Optimum, whose type reaches no slice, map or
// further pointer, so no solver table or derivation survives the
// solve. A feasible and an infeasible problem are both checked, and
// the infeasible one answers nil from the solve and from the cache.
func TestSolverCacheHoldsOptimumOnly(t *testing.T) {
	st := randColored(rand.New(rand.NewSource(67)), 9)
	s := NewWithCache(st, NewProgramCache())
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		opt, err := SolveOptimize(ctx, s, freeSelect{})
		if err != nil || opt == nil || opt.Value != 0 {
			t.Fatalf("feasible optimize #%d: %+v, %v", i, opt, err)
		}
		none, err := SolveOptimize(ctx, s, noneAccepted{})
		if err != nil || none != nil {
			t.Fatalf("infeasible optimize #%d: %+v, %v; want nil", i, none, err)
		}
	}
	if _, err := SolveCount(ctx, s, freeSelect{}); err != nil {
		t.Fatal(err)
	}

	_, fp, err := s.niceForm(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{freeSelect{}.Name(), noneAccepted{}.Name()} {
		v, ok := s.solved.Peek(solverKey{fp: fp, problem: name, mode: solver.ModeOptimize})
		if !ok {
			t.Fatalf("%s: no cached optimize entry", name)
		}
		if _, isOpt := v.(*solver.Optimum); !isOpt {
			t.Fatalf("%s: cached optimize entry is %T, want *solver.Optimum", name, v)
		}
	}
	optimumType := reflect.TypeOf(solver.Optimum{})
	for i := 0; i < optimumType.NumField(); i++ {
		switch f := optimumType.Field(i); f.Type.Kind() {
		case reflect.Slice, reflect.Map, reflect.Pointer, reflect.Interface, reflect.Struct, reflect.Array:
			t.Errorf("solver.Optimum field %s has kind %v: a cached optimum must hold no table", f.Name, f.Type.Kind())
		}
	}
	if got := s.solved.Len(); got != 3 {
		t.Errorf("solver cache holds %d entries, want 3 (two optimize, one count)", got)
	}
}

// TestSolverInvalidation: mutating the structure empties the solver
// cache along with the other artifacts.
func TestSolverInvalidation(t *testing.T) {
	st := randColored(rand.New(rand.NewSource(59)), 5)
	s := NewWithCache(st, NewProgramCache())
	ctx := context.Background()

	n, err := SolveCount(ctx, s, freeSelect{})
	if err != nil {
		t.Fatal(err)
	}
	if want := big.NewInt(1 << 5); n.Cmp(want) != 0 {
		t.Fatalf("count = %v, want %v", n, want)
	}

	st.AddElem("fresh")
	n, err = SolveCount(ctx, s, freeSelect{})
	if err != nil {
		t.Fatal(err)
	}
	if want := big.NewInt(1 << 6); n.Cmp(want) != 0 {
		t.Fatalf("count after mutation = %v, want %v (stale cache?)", n, want)
	}
	stats := s.Stats()
	if stats.SolverSolves != 2 {
		t.Errorf("SolverSolves = %d, want 2", stats.SolverSolves)
	}
	if stats.Invalidations == 0 {
		t.Error("mutation did not count an invalidation")
	}
}

// TestChaosSessionSolver injects faults at the session.solver boundary
// and inside the solver engine reached through the session path, and
// checks stage tagging plus a clean, correct retry (no poisoned cache).
func TestChaosSessionSolver(t *testing.T) {
	defer faultinject.Reset()
	points := []string{"session.solver", "solver.introduce", "solver.forget", "solver.join"}
	for _, point := range points {
		faultinject.Reset()
		faultinject.FailAt(point, 1)
		st := randColored(rand.New(rand.NewSource(61)), 6)
		s := NewWithCache(st, NewProgramCache())
		ctx := context.Background()

		_, err := SolveCount(ctx, s, freeSelect{})
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("%s: err = %v, want injected fault", point, err)
		}
		if got := stage.Of(err); got != stage.Solver {
			t.Fatalf("%s: tagged stage %q, want %q", point, got, stage.Solver)
		}

		// The plan is exhausted; the retry must compute the right answer
		// and the failed run must not have stored anything.
		n, err := SolveCount(ctx, s, freeSelect{})
		if err != nil {
			t.Fatalf("%s: retry failed: %v", point, err)
		}
		if want := big.NewInt(1 << 6); n.Cmp(want) != 0 {
			t.Fatalf("%s: retry count = %v, want %v", point, n, want)
		}
		stats := s.Stats()
		if stats.SolverSolves != 1 || stats.SolverCacheHits != 0 {
			t.Fatalf("%s: stats after fault+retry = %+v, want 1 solve 0 hits", point, stats)
		}
	}
}

// insertSorted returns a new sorted slice with v inserted: the
// reference model of a forget node's child bag.
func insertSorted(xs []int, v int) []int {
	out := make([]int, 0, len(xs)+1)
	i := 0
	for ; i < len(xs) && xs[i] < v; i++ {
		out = append(out, xs[i])
	}
	out = append(out, v)
	return append(out, xs[i:]...)
}
