package session

// Regression tests for the session-layer concurrency contract: the
// mutex is held for cache lookups/inserts only, warm cache hits
// complete while cold work is in flight on the same session, and
// concurrent requests for the same key share one in-flight
// computation. All of these run under -race in CI.

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mso"
)

// TestWarmHitDuringColdEval pins the single-flight fix: a warm
// result-cache hit completes while a slow cold evaluation on the same
// session is still running, instead of serializing behind it.
func TestWarmHitDuringColdEval(t *testing.T) {
	st := randColored(rand.New(rand.NewSource(71)), 6)
	s := NewWithCache(st, NewProgramCache())
	ctx := context.Background()
	warmQ := mso.MustParse("c(x)")
	coldQ := mso.MustParse("~c(x)")

	// Pre-warm: artifacts built, warmQ's result cached.
	if _, err := s.Eval(ctx, warmQ, "x", core.Options{}); err != nil {
		t.Fatal(err)
	}

	// Hold the next uncached evaluation open.
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	testHookEvalStart = func() {
		once.Do(func() { close(started) })
		<-release
	}
	defer func() { testHookEvalStart = nil }()

	coldDone := make(chan error, 1)
	go func() {
		_, err := s.Eval(ctx, coldQ, "x", core.Options{})
		coldDone <- err
	}()
	<-started

	// The cold evaluation is in flight and blocked. A warm hit must
	// complete anyway — bounded only by a generous watchdog so a
	// regression fails fast instead of hanging the suite.
	warmDone := make(chan error, 1)
	go func() {
		res, err := s.Eval(ctx, warmQ, "x", core.Options{})
		if err == nil && res == nil {
			t.Error("warm hit returned nil result")
		}
		warmDone <- err
	}()
	select {
	case err := <-warmDone:
		if err != nil {
			t.Fatalf("warm hit failed during cold eval: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("warm cache hit blocked behind an in-flight cold evaluation")
	}

	close(release)
	if err := <-coldDone; err != nil {
		t.Fatalf("cold eval failed: %v", err)
	}
	stats := s.Stats()
	if stats.Evals != 2 {
		t.Errorf("Evals = %d, want 2", stats.Evals)
	}
	if stats.ResultCacheHits != 1 {
		t.Errorf("ResultCacheHits = %d, want 1", stats.ResultCacheHits)
	}
}

// TestConcurrentSameKeyEvalShares pins per-key single-flight: many
// concurrent Eval calls for one formula perform exactly one evaluation
// and agree on the answer.
func TestConcurrentSameKeyEvalShares(t *testing.T) {
	st := randColored(rand.New(rand.NewSource(72)), 6)
	s := NewWithCache(st, NewProgramCache())
	phi := mso.MustParse("c(x) | ~c(x)")
	const n = 8
	var wg sync.WaitGroup
	results := make([]*core.Result, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Eval(context.Background(), phi, "x", core.Options{})
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("eval %d: %v", i, errs[i])
		}
		if !results[i].Selected.Equal(results[0].Selected) {
			t.Fatalf("eval %d disagrees: %v vs %v", i, results[i].Selected.Elems(), results[0].Selected.Elems())
		}
	}
	stats := s.Stats()
	if stats.Evals != 1 {
		t.Errorf("Evals = %d, want 1 (concurrent same-key calls must share)", stats.Evals)
	}
	if stats.ResultCacheHits != n-1 {
		t.Errorf("ResultCacheHits = %d, want %d", stats.ResultCacheHits, n-1)
	}
	if stats.Decompositions != 1 {
		t.Errorf("Decompositions = %d, want 1", stats.Decompositions)
	}
}

// TestConcurrentDistinctQueriesOneBuild pins artifact single-flight:
// ten distinct queries arriving at once on a cold session build the
// front end exactly once.
func TestConcurrentDistinctQueriesOneBuild(t *testing.T) {
	st := randColored(rand.New(rand.NewSource(73)), 6)
	s := NewWithCache(st, NewProgramCache())
	var wg sync.WaitGroup
	errs := make([]error, len(tenQueries))
	for i, q := range tenQueries {
		wg.Add(1)
		go func(i int, q string) {
			defer wg.Done()
			_, errs[i] = s.Eval(context.Background(), mso.MustParse(q), "x", core.Options{})
		}(i, q)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	stats := s.Stats()
	if stats.Decompositions != 1 || stats.TupleNormalizations != 1 || stats.TDBuilds != 1 {
		t.Errorf("front-end builds = %d/%d/%d, want 1/1/1",
			stats.Decompositions, stats.TupleNormalizations, stats.TDBuilds)
	}
	if stats.Evals != len(tenQueries) {
		t.Errorf("Evals = %d, want %d", stats.Evals, len(tenQueries))
	}
}

// TestProgramCacheSingleFlight pins that concurrent Get calls for one
// key compile exactly once without serializing other keys behind the
// compilation (the compile runs outside the cache lock).
func TestProgramCacheSingleFlight(t *testing.T) {
	st := randColored(rand.New(rand.NewSource(74)), 5)
	pc := NewProgramCache()
	phi := mso.MustParse("c(x)")
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = pc.Get(context.Background(), st.Sig(), phi, "x", core.Options{MaxWitnessDomain: 12, MaxTypes: 2000, MaxEDBSubsets: 65536})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	hits, misses := pc.Stats()
	if misses != 1 {
		t.Errorf("misses = %d, want 1 (shared in-flight compile)", misses)
	}
	if hits != n-1 {
		t.Errorf("hits = %d, want %d", hits, n-1)
	}
}

// TestProgramCacheFloodBounded pins the eviction fix: flooding the
// shared program cache with 10k distinct keys never grows it past its
// FIFO cap (before this fix the map was unbounded).
func TestProgramCacheFloodBounded(t *testing.T) {
	pc := NewProgramCacheSize(64)
	for i := 0; i < 10000; i++ {
		pc.c.Add(progKey{formula: "f", width: i}, &core.Compiled{})
	}
	if got := pc.Len(); got > 64 {
		t.Fatalf("cache holds %d entries after 10k inserts, cap is 64", got)
	}
	if orderLen := len(pc.c.Values()); orderLen != pc.Len() {
		t.Fatalf("order length %d != map length %d (leak)", orderLen, pc.Len())
	}
	// An evicted key is recompiled, not lost: Get still works end to end.
	st := randColored(rand.New(rand.NewSource(75)), 4)
	if _, _, err := pc.Get(context.Background(), st.Sig(), mso.MustParse("c(x)"), "x", core.Options{}); err != nil {
		t.Fatalf("get after flood: %v", err)
	}
}

// TestSessionResultCacheBounded pins the per-session result FIFO cap
// against a flood of distinct keys through the insert path.
func TestSessionResultCacheBounded(t *testing.T) {
	st := randColored(rand.New(rand.NewSource(76)), 4)
	s := NewWithCache(st, NewProgramCache())
	for i := 0; i < 10000; i++ {
		s.results.Add(resultKey{progKey: progKey{formula: "f", width: i}}, &resultEntry{})
	}
	n, seq := s.results.Len(), len(s.results.Values())
	if n > resultCap || seq > resultCap {
		t.Fatalf("result cache holds %d entries (seq %d) after 10k inserts, cap is %d", n, seq, resultCap)
	}
}

// TestConcurrentSolveShares pins solver single-flight: concurrent
// SolveCount calls for one problem run one solve.
func TestConcurrentSolveShares(t *testing.T) {
	st := randColored(rand.New(rand.NewSource(77)), 7)
	s := NewWithCache(st, NewProgramCache())
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = SolveCount(context.Background(), s, freeSelect{})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
	}
	stats := s.Stats()
	if stats.SolverSolves != 1 {
		t.Errorf("SolverSolves = %d, want 1", stats.SolverSolves)
	}
	if stats.SolverCacheHits != n-1 {
		t.Errorf("SolverCacheHits = %d, want %d", stats.SolverCacheHits, n-1)
	}
}

// tdPollHold is a context whose Err, called from the poll that
// tree.BuildTDCtx makes before building, blocks the first time until
// release is closed: it holds a τ_td build in flight.
type tdPollHold struct {
	context.Context
	once             sync.Once
	entered, release chan struct{}
}

func (c *tdPollHold) Err() error {
	var pc [1]uintptr
	runtime.Callers(2, pc[:])
	if f, _ := runtime.CallersFrames(pc[:]).Next(); f.Function == "repro/internal/tree.BuildTDCtx" {
		c.once.Do(func() { close(c.entered); <-c.release })
	}
	return c.Context.Err()
}

// TestConcurrentNiceFormDuringTauTDBuild pins per-stage single-flight: a
// request that needs only the raw decomposition does not wait for a
// concurrent build's τ_td stage. With Warm's τ_td build held in flight,
// NiceForm must answer from the decomposition Warm already filed.
func TestConcurrentNiceFormDuringTauTDBuild(t *testing.T) {
	st := randColored(rand.New(rand.NewSource(78)), 8)
	s := NewWithCache(st, NewProgramCache())
	hold := &tdPollHold{Context: context.Background(), entered: make(chan struct{}), release: make(chan struct{})}
	warmed := make(chan error, 1)
	go func() {
		_, err := s.Warm(hold)
		warmed <- err
	}()
	<-hold.entered
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err := s.NiceForm(ctx)
	close(hold.release)
	if err := <-warmed; err != nil {
		t.Fatalf("Warm: %v", err)
	}
	if err != nil {
		t.Fatalf("NiceForm during a held τ_td build: %v", err)
	}
	if got := s.Stats().Decompositions; got != 1 {
		t.Fatalf("Decompositions = %d, want 1", got)
	}
}
