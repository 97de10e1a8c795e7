package session

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mso"
	"repro/internal/schema"
	"repro/internal/stage"
	"repro/internal/structure"
	"repro/internal/testutil/leak"
)

var sigColor = structure.MustSignature(structure.Predicate{Name: "c", Arity: 1})

func randColored(rng *rand.Rand, n int) *structure.Structure {
	st := structure.New(sigColor)
	for i := 0; i < n; i++ {
		id := st.AddElem(fmt.Sprintf("v%d", i))
		if rng.Intn(2) == 0 {
			st.MustAddTuple("c", id)
		}
	}
	return st
}

// tenQueries are ten syntactically distinct quantifier-free queries, so
// each one misses the program cache while sharing every per-structure
// artifact.
var tenQueries = []string{
	"c(x)",
	"~c(x)",
	"c(x) | ~c(x)",
	"c(x) & c(x)",
	"c(x) -> c(x)",
	"~(c(x) & ~c(x))",
	"c(x) & (c(x) | ~c(x))",
	"~c(x) | c(x)",
	"c(x) & c(x) & c(x)",
	"(c(x) -> c(x)) & c(x)",
}

// TestSessionTenQueriesOneDecomposition pins the tentpole cache
// guarantee: 10 MSO queries over one structure through a Session
// perform exactly 1 decomposition, 1 tuple normalization and 1 τ_td
// build.
func TestSessionTenQueriesOneDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	st := randColored(rng, 6)
	s := NewWithCache(st, NewProgramCache())
	ctx := context.Background()
	for _, q := range tenQueries {
		phi := mso.MustParse(q)
		res, err := s.Eval(ctx, phi, "x", core.Options{})
		if err != nil {
			t.Fatalf("eval %q: %v", q, err)
		}
		want, err := mso.Query(st, phi, "x", nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Selected.Equal(want) {
			t.Fatalf("query %q: selected %v, want %v", q, res.Selected.Elems(), want.Elems())
		}
		if res.Trace == nil || len(res.Trace.Stats) == 0 {
			t.Fatalf("query %q: no trace recorded", q)
		}
	}
	stats := s.Stats()
	if stats.Decompositions != 1 {
		t.Errorf("Decompositions = %d, want 1", stats.Decompositions)
	}
	if stats.TupleNormalizations != 1 {
		t.Errorf("TupleNormalizations = %d, want 1", stats.TupleNormalizations)
	}
	if stats.TDBuilds != 1 {
		t.Errorf("TDBuilds = %d, want 1", stats.TDBuilds)
	}
	if stats.Evals != 10 {
		t.Errorf("Evals = %d, want 10", stats.Evals)
	}
	if stats.Compiles != 10 || stats.CompileCacheHits != 0 {
		t.Errorf("Compiles = %d (hits %d), want 10 distinct compiles", stats.Compiles, stats.CompileCacheHits)
	}
}

// TestSessionProgramCacheHit pins the per-query cache: re-evaluating
// the same formula hits the program cache.
func TestSessionProgramCacheHit(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	st := randColored(rng, 5)
	s := NewWithCache(st, NewProgramCache())
	phi := mso.MustParse("c(x)")
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := s.Eval(ctx, phi, "x", core.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	stats := s.Stats()
	if stats.CompileCacheHits != 2 {
		t.Errorf("CompileCacheHits = %d, want 2", stats.CompileCacheHits)
	}
	if stats.Evals != 1 || stats.ResultCacheHits != 2 {
		t.Errorf("Evals = %d, ResultCacheHits = %d, want 1 and 2", stats.Evals, stats.ResultCacheHits)
	}
	hits, misses := s.ProgramCacheStats()
	if hits != 2 || misses != 1 {
		t.Errorf("program cache hits/misses = %d/%d, want 2/1", hits, misses)
	}
	// The trace of a warm run marks the front-end stages as cached.
	res, err := s.Eval(ctx, phi, "x", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cached := 0
	for _, st := range res.Trace.Stats {
		if st.CacheHit {
			cached++
		}
	}
	if cached < 4 { // decompose, normalize-tuple, build-td, compile
		t.Errorf("warm trace has %d cached stages, want >= 4:\n%s", cached, res.Trace)
	}
}

// TestProgramCacheKeysByReduct pins the program-cache key: a program is
// compiled over, and keyed by, the predicates its formula mentions. So
// c(x) compiles once for {c/1} and {edge/2, c/1}; a formula that
// mentions edge, and a signature whose c is binary, get keys of their
// own; and an unknown predicate or a wrong arity fails exactly as a
// compilation over the whole signature does.
func TestProgramCacheKeysByReduct(t *testing.T) {
	ctx := context.Background()
	sigEC := structure.MustSignature(
		structure.Predicate{Name: "edge", Arity: 2},
		structure.Predicate{Name: "c", Arity: 1},
	)
	sigC2 := structure.MustSignature(structure.Predicate{Name: "c", Arity: 2})
	opts := core.Options{Width: 1}
	pc := NewProgramCache()
	phi := mso.MustParse("c(x)")
	first, hit, err := pc.Get(ctx, sigColor, phi, "x", opts)
	if err != nil || hit {
		t.Fatalf("c(x) over {c/1}: hit %v, err %v", hit, err)
	}
	if first.UpTypes != 4 || first.DownTypes != 4 {
		t.Fatalf("c(x) at width 1: %d+%d types, want the reduct's 4+4", first.UpTypes, first.DownTypes)
	}
	again, hit, err := pc.Get(ctx, sigEC, phi, "x", opts)
	if err != nil || !hit || again != first {
		t.Fatalf("c(x) over {edge/2, c/1}: hit %v, err %v, same program %v; want the {c/1} program", hit, err, again == first)
	}
	edge := mso.MustParse("c(x) & ~edge(x, x)")
	if keyFor(sigEC, edge, "x", opts) == keyFor(sigEC, phi, "x", opts) {
		t.Fatal("a formula mentioning edge shares c(x)'s key")
	}
	if keyFor(sigC2, phi, "x", opts) == keyFor(sigColor, phi, "x", opts) {
		t.Fatal("c/2 shares c/1's key")
	}
	if _, misses := pc.Stats(); misses != 1 {
		t.Fatalf("program cache misses = %d, want 1", misses)
	}
	for _, tc := range []struct {
		sig     *structure.Signature
		formula string
	}{
		{sigEC, "d(x)"},
		{sigEC, "c(x) & d(x)"},
		{sigC2, "c(x)"},
	} {
		phi := mso.MustParse(tc.formula)
		_, _, got := pc.Get(ctx, tc.sig, phi, "x", opts)
		_, want := core.Compile(tc.sig, phi, "x", opts)
		if got == nil || want == nil || got.Error() != want.Error() {
			t.Fatalf("%q over %v: error %v, want %v", tc.formula, tc.sig.Predicates(), got, want)
		}
	}
}

// TestSessionInvalidation pins fingerprint-based invalidation: mutating
// the structure forces a fresh decomposition.
func TestSessionInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	st := randColored(rng, 5)
	s := NewWithCache(st, NewProgramCache())
	phi := mso.MustParse("c(x)")
	ctx := context.Background()
	if _, err := s.Eval(ctx, phi, "x", core.Options{}); err != nil {
		t.Fatal(err)
	}
	id := st.AddElem("fresh")
	st.MustAddTuple("c", id)
	res, err := s.Eval(ctx, phi, "x", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Selected.Has(id) {
		t.Fatal("stale artifacts: new element not selected")
	}
	stats := s.Stats()
	if stats.Invalidations != 1 || stats.Decompositions != 2 {
		t.Errorf("Invalidations = %d, Decompositions = %d, want 1 and 2", stats.Invalidations, stats.Decompositions)
	}
}

// TestSessionRequestedWidth pins the width-assertion fix: zero is a
// legitimate requested width (structures whose primal graph is
// edgeless), and the nil pointer means no assertion.
func TestSessionRequestedWidth(t *testing.T) {
	st := structure.New(sigColor)
	for i := 0; i < 4; i++ {
		id := st.AddElem(fmt.Sprintf("v%d", i))
		if i%2 == 0 {
			st.MustAddTuple("c", id)
		}
	}
	s := NewWithCache(st, NewProgramCache())
	ctx := context.Background()
	phi := mso.MustParse("c(x)")
	// Width 0 must be assertable and pass.
	res, err := s.Eval(ctx, phi, "x", core.Options{}.RequestWidth(0))
	if err != nil {
		t.Fatalf("RequestWidth(0): %v", err)
	}
	if res.Width != 0 {
		t.Fatalf("width = %d, want 0", res.Width)
	}
	// A wrong assertion must fail.
	if _, err := s.Eval(ctx, phi, "x", core.Options{}.RequestWidth(3)); err == nil {
		t.Fatal("RequestWidth(3) on a width-0 decomposition succeeded")
	}
}

// TestSessionDeadlineStageTagged pins the cancellation taxonomy: an
// expired deadline surfaces as a *StageError wrapping
// context.DeadlineExceeded, and no goroutines leak.
func TestSessionDeadlineStageTagged(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	st := randColored(rng, 300)
	snap := leak.Before()
	s := NewWithCache(st, NewProgramCache())
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	time.Sleep(2 * time.Millisecond) // guarantee expiry at the first poll
	_, err := s.Eval(ctx, mso.MustParse("c(x)"), "x", core.Options{})
	if err == nil {
		t.Fatal("expired deadline did not fail")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not stage-tagged", err)
	}
	if se.Stage == "" {
		t.Fatal("stage tag is empty")
	}
	snap.Check(t)
	// A live context on the same session still succeeds (no poisoning).
	if _, err := s.Eval(context.Background(), mso.MustParse("c(x)"), "x", core.Options{}); err != nil {
		t.Fatalf("session poisoned after cancellation: %v", err)
	}
}

// TestSchemaSessionMemoizes pins SchemaSession: one instance build and
// one enumeration across repeated calls, invalidated on schema change.
func TestSchemaSessionMemoizes(t *testing.T) {
	s := schema.MustParse("attrs A B C\nfd f1: A B -> C\nfd f2: C -> A\n")
	ss := NewSchemaSession(s)
	ctx := context.Background()
	first, err := ss.Primes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	second, err := ss.Primes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Equal(second) {
		t.Fatal("memoized primes differ")
	}
	stats := ss.Stats()
	if stats.Decompositions != 1 || stats.Evals != 1 {
		t.Errorf("Decompositions = %d, Evals = %d, want 1 and 1", stats.Decompositions, stats.Evals)
	}
	want, err := s.PrimesBruteForce()
	if err != nil {
		t.Fatal(err)
	}
	if !first.Equal(want) {
		t.Fatalf("primes %v, want %v", first.Elems(), want.Elems())
	}
	// Mutating the schema invalidates.
	s.AddAttr("D")
	if _, err := ss.Primes(ctx); err != nil {
		t.Fatal(err)
	}
	if got := ss.Stats().Invalidations; got != 1 {
		t.Errorf("Invalidations = %d, want 1", got)
	}
}

// TestRegistryIdentity pins the registry: same object, same session.
func TestRegistryIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	st := randColored(rng, 4)
	if For(st) != For(st) {
		t.Fatal("registry returned distinct sessions for one structure")
	}
	other := randColored(rng, 4)
	if For(st) == For(other) {
		t.Fatal("registry shared a session across structures")
	}
	sch := schema.MustParse("attrs A B\nfd f: A -> B\n")
	if ForSchema(sch) != ForSchema(sch) {
		t.Fatal("schema registry returned distinct sessions")
	}
}

// TestStageErrorAlias pins that the session aliases are the stage
// package's types (one taxonomy, no conversion needed).
func TestStageErrorAlias(t *testing.T) {
	err := stage.Wrap(stage.Eval, context.Canceled)
	var se *StageError
	if !errors.As(err, &se) || se.Stage != stage.Eval {
		t.Fatal("StageError alias does not match stage.Error")
	}
	var tr Trace
	tr.Record(stage.Eval, time.Millisecond, 1, false)
	if tr.Total() != time.Millisecond {
		t.Fatal("Trace alias does not match stage.Trace")
	}
}
