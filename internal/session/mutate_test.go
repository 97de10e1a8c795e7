package session

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/mso"
	"repro/internal/solver"
	"repro/internal/stage"
	"repro/internal/structure"
)

var sigMutate = structure.MustSignature(
	structure.Predicate{Name: "e", Arity: 2},
	structure.Predicate{Name: "c", Arity: 1},
)

// randMutable builds a random {e/2, c/1} path structure with random
// colors. The e-graph stays a forest throughout the tests, so edits
// never raise the treewidth: the queries below mention only c and
// compile over the reduct {c/1} at any width, but the tests compare
// warm and cold answers at the width the path fixes.
func randMutable(rng *rand.Rand, n int) *structure.Structure {
	st := structure.New(sigMutate)
	for i := 0; i < n; i++ {
		st.AddElem(fmt.Sprintf("v%d", i))
	}
	for i := 0; i+1 < n; i++ {
		st.MustAddTuple("e", i, i+1)
	}
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			st.MustAddTuple("c", i)
		}
	}
	return st
}

// Quantifier-free unary queries over c. They compile over the reduct
// {c/1}; rank-1 queries that mention only c would too, while rank-1
// quantification over e exceeds the compiler's type space by design.
var mutateQueries = []string{
	"c(x)",
	"~c(x)",
	"c(x) | ~c(x)",
}

// connected reports whether u and v are joined in the undirected view
// of st's e-relation — the test-side forest guard for edge inserts.
func connected(st *structure.Structure, u, v int) bool {
	parent := make([]int, st.Size())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, t := range st.Tuples("e") {
		if ra, rb := find(t[0]), find(t[1]); ra != rb {
			parent[ra] = rb
		}
	}
	return find(u) == find(v)
}

// checkMutateAnswers evaluates every query on the warm session and on
// the naive reference, failing on any disagreement.
func checkMutateAnswers(t *testing.T, s *Session, st *structure.Structure, label string) {
	t.Helper()
	ctx := context.Background()
	for _, q := range mutateQueries {
		phi := mso.MustParse(q)
		res, err := s.Eval(ctx, phi, "x", core.Options{})
		if err != nil {
			t.Fatalf("%s: eval %q: %v", label, q, err)
		}
		want, err := mso.Query(st, phi, "x", nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Selected.Equal(want) {
			t.Fatalf("%s: query %q: selected %v, want %v", label, q, res.Selected.Elems(), want.Elems())
		}
	}
}

// TestMutateDifferentialSequence is the session half of the mutation
// differential suite: a 50-edit random insert/retract/add-element
// sequence through Session.Mutate, with every query re-checked against
// the naive MSO reference after every single edit. Both the incremental
// fast path and the fallback paths must be exercised.
func TestMutateDifferentialSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	st := randMutable(rng, 12)
	s := NewWithCache(st, NewProgramCache())
	checkMutateAnswers(t, s, st, "initial")

	for step := 0; step < 50; step++ {
		ms, err := s.Mutate(func(st *structure.Structure) error {
			switch rng.Intn(5) {
			case 0: // toggle a color — always covered by some bag
				v := rng.Intn(st.Size())
				if st.Has("c", v) {
					st.RemoveTuple("c", v)
				} else {
					st.MustAddTuple("c", v)
				}
			case 1: // retract a random edge
				tuples := st.Tuples("e")
				if len(tuples) > 0 {
					e := tuples[rng.Intn(len(tuples))]
					st.RemoveTuple("e", e[0], e[1])
				}
			case 2: // fresh element wired to an existing one
				v := st.AddElem(fmt.Sprintf("w%d", step))
				st.MustAddTuple("e", rng.Intn(v), v)
			case 3: // reverse of an existing edge: covered, no primal change
				tuples := st.Tuples("e")
				if len(tuples) > 0 {
					e := tuples[rng.Intn(len(tuples))]
					if !st.Has("e", e[1], e[0]) {
						st.MustAddTuple("e", e[1], e[0])
					}
				}
			default: // bridge two components: uncovered insert, still a forest
				u, v := rng.Intn(st.Size()), rng.Intn(st.Size())
				if u != v && !connected(st, u, v) {
					st.MustAddTuple("e", u, v)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		_ = ms
		checkMutateAnswers(t, s, st, fmt.Sprintf("step %d", step))
	}
	stats := s.Stats()
	if stats.DeltasApplied == 0 {
		t.Error("50 edits applied no deltas — the incremental path never ran")
	}
	t.Logf("deltas applied %d, invalidations %d, decompositions %d",
		stats.DeltasApplied, stats.Invalidations, stats.Decompositions)
}

// TestMutateFastPathStats pins the covered fast path: a covered
// single-tuple edit keeps the decompositions (no new decomposition or
// normalization, no invalidation) but drops τ_td and the cached result,
// and the requery rebuilds τ_td in the front end and re-grounds over it
// with the updated answer.
func TestMutateFastPathStats(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	st := randMutable(rng, 10)
	s := NewWithCache(st, NewProgramCache())
	ctx := context.Background()
	phi := mso.MustParse("c(x)")
	if _, err := s.Eval(ctx, phi, "x", core.Options{}); err != nil {
		t.Fatal(err)
	}

	// Make v0 flip its answer.
	wasColored := st.Has("c", 0)
	ms, err := s.Mutate(func(st *structure.Structure) error {
		if wasColored {
			st.RemoveTuple("c", 0)
		} else {
			st.MustAddTuple("c", 0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ms.DeltaApplied || ms.Invalidated || ms.Changes != 1 {
		t.Fatalf("covered edit: %+v, want a pure delta of one change", ms)
	}
	if ms.ResultsMaintained != 0 || ms.ResultsDropped != 1 {
		t.Fatalf("ResultsMaintained=%d ResultsDropped=%d, want 0 and 1", ms.ResultsMaintained, ms.ResultsDropped)
	}

	res, err := s.Eval(ctx, phi, "x", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Selected.Has(0) == wasColored {
		t.Fatal("requery did not see the edit")
	}
	// The requery reads the kept decompositions from cache and builds
	// τ_td itself.
	wantHit := map[stage.Stage]bool{stage.Decompose: true, stage.NormalizeTuple: true, stage.BuildTD: false}
	for _, st := range res.Trace.Stats {
		if want, ok := wantHit[st.Stage]; ok {
			if st.CacheHit != want {
				t.Errorf("requery trace: %s CacheHit=%v, want %v", st.Stage, st.CacheHit, want)
			}
			delete(wantHit, st.Stage)
		}
	}
	if len(wantHit) != 0 {
		t.Errorf("requery trace lacks %v", wantHit)
	}
	stats := s.Stats()
	if stats.Decompositions != 1 || stats.TupleNormalizations != 1 || stats.TDBuilds != 2 {
		t.Errorf("front end: decompositions=%d normalizations=%d tdbuilds=%d, want 1/1/2 (only τ_td is rebuilt)",
			stats.Decompositions, stats.TupleNormalizations, stats.TDBuilds)
	}
	if stats.Invalidations != 0 || stats.DeltasApplied != 1 {
		t.Errorf("Invalidations=%d DeltasApplied=%d, want 0/1",
			stats.Invalidations, stats.DeltasApplied)
	}
	if stats.Evals != 2 || stats.ResultCacheHits != 0 {
		t.Errorf("Evals=%d ResultCacheHits=%d, want 2 and 0 (the requery re-grounds)",
			stats.Evals, stats.ResultCacheHits)
	}
}

// TestMutateUncoveredEditInvalidates pins the degradation path: an
// edit the cached decomposition does not cover invalidates wholesale,
// and the next query rebuilds and still answers correctly. The edit
// bridges two path components — uncovered (its endpoints share no bag)
// yet the structure stays a forest, so the rebuild stays at width 1.
func TestMutateUncoveredEditInvalidates(t *testing.T) {
	st := structure.New(sigMutate)
	for i := 0; i < 12; i++ {
		st.AddElem(fmt.Sprintf("v%d", i))
	}
	for i := 0; i+1 < 12; i++ {
		st.MustAddTuple("e", i, i+1)
	}
	st.MustAddTuple("c", 0)
	s := NewWithCache(st, NewProgramCache())
	checkMutateAnswers(t, s, st, "initial")

	// Split the path in the middle — a retraction is always covered.
	ms, err := s.Mutate(func(st *structure.Structure) error {
		st.RemoveTuple("e", 5, 6)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ms.DeltaApplied || ms.Invalidated {
		t.Fatalf("retraction: %+v, want a pure delta", ms)
	}

	// No bag of the path's decomposition holds both far ends.
	ms, err = s.Mutate(func(st *structure.Structure) error {
		st.MustAddTuple("e", 0, 11)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ms.Invalidated || ms.DeltaApplied {
		t.Fatalf("bridge edit: %+v, want an invalidation", ms)
	}
	checkMutateAnswers(t, s, st, "post-invalidation")
	stats := s.Stats()
	if stats.DeltasApplied != 1 || stats.Invalidations != 1 {
		t.Errorf("DeltasApplied=%d Invalidations=%d, want 1 and 1", stats.DeltasApplied, stats.Invalidations)
	}
	if stats.Decompositions != 2 {
		t.Errorf("Decompositions=%d, want 2 (the uncovered edit forces a rebuild)", stats.Decompositions)
	}
}

// TestMutateKeepsCoveredDecomposition pins the rule that decides an
// edit's outcome: the session keeps its decomposition exactly when the
// decomposition still covers the edited structure. On a path, a colour
// toggle, an edge retraction and the edge's restoration are covered and
// keep the one decomposition, and so do 25 consecutive colour toggles
// after them; a new element and a chord between the path's ends are
// not, and each forces a new one. Every covered edit counts as a delta
// applied and none invalidates. After every edit the warm session's
// answers must match a cold session's on a copy of the edited
// structure. The chord closes a cycle (width 2); the queries mention
// only c, so both backends answer there too, the automaton compiling
// over the reduct {c/1}.
func TestMutateKeepsCoveredDecomposition(t *testing.T) {
	const n = 12
	st := structure.New(sigMutate)
	for i := 0; i < n; i++ {
		st.AddElem(fmt.Sprintf("v%d", i))
	}
	for i := 0; i+1 < n; i++ {
		st.MustAddTuple("e", i, i+1)
	}
	st.MustAddTuple("c", 0)
	pc := NewProgramCache()
	s := NewWithCache(st, pc)
	automaton, game := core.Options{}, core.Options{Backend: "game"}
	matchesCold(t, s, pc, automaton, "initial")

	type step struct {
		name     string
		edit     func(*structure.Structure) error
		covered  bool
		backends []core.Options
	}
	steps := []step{
		{"colour toggle", func(st *structure.Structure) error { return st.AddTuple("c", 5) }, true, []core.Options{automaton}},
		{"edge retract", func(st *structure.Structure) error { st.RemoveTuple("e", 5, 6); return nil }, true, []core.Options{automaton}},
		{"edge restore", func(st *structure.Structure) error { return st.AddTuple("e", 5, 6) }, true, []core.Options{automaton, game}},
	}
	for i := 0; i < 25; i++ {
		v := i % n
		steps = append(steps, step{fmt.Sprintf("toggle c(v%d)", v), func(st *structure.Structure) error {
			if st.RemoveTuple("c", v) {
				return nil
			}
			return st.AddTuple("c", v)
		}, true, []core.Options{automaton}})
	}
	steps = append(steps,
		step{"new element", func(st *structure.Structure) error { st.AddElem("w"); return nil }, false, []core.Options{automaton, game}},
		step{"chord", func(st *structure.Structure) error { return st.AddTuple("e", 0, n-1) }, false, []core.Options{automaton, game}},
	)
	decompositions, invalidations, deltas := 1, 0, 0
	for _, step := range steps {
		ms, err := s.Mutate(step.edit)
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if ms.Changes != 1 || ms.DeltaApplied != step.covered || ms.Invalidated == step.covered {
			t.Fatalf("%s: %+v, want one change with DeltaApplied=%v", step.name, ms, step.covered)
		}
		if step.covered {
			deltas++
		} else {
			decompositions++
			invalidations++
		}
		for _, opts := range step.backends {
			matchesCold(t, s, pc, opts, step.name)
		}
		if stats := s.Stats(); stats.Decompositions != decompositions || stats.Invalidations != invalidations || stats.DeltasApplied != deltas {
			t.Fatalf("%s: Decompositions=%d Invalidations=%d DeltasApplied=%d, want %d, %d and %d",
				step.name, stats.Decompositions, stats.Invalidations, stats.DeltasApplied, decompositions, invalidations, deltas)
		}
	}
}

// matchesCold evaluates every query under opts on s and on a cold
// session over a copy of s's structure, failing on any disagreement.
func matchesCold(t *testing.T, s *Session, pc *ProgramCache, opts core.Options, label string) {
	t.Helper()
	ctx := context.Background()
	var st *structure.Structure
	s.View(func(cur *structure.Structure) { st = cur.Clone() })
	cold := NewWithCache(st, pc)
	for _, q := range mutateQueries {
		phi := mso.MustParse(q)
		got, err := s.Eval(ctx, phi, "x", opts)
		if err != nil {
			t.Fatalf("%s: warm %q: %v", label, q, err)
		}
		want, err := cold.Eval(ctx, phi, "x", opts)
		if err != nil {
			t.Fatalf("%s: cold %q: %v", label, q, err)
		}
		if !got.Selected.Equal(want.Selected) {
			t.Fatalf("%s: %q selected %v, cold session %v", label, q, got.Selected.Elems(), want.Selected.Elems())
		}
	}
}

// TestMutateChaosNoPoisoning proves the no-cache-poisoning property on
// the two steps a requery after a covered edit takes: a faulted τ_td
// rebuild and a faulted re-grounding each fail that query alone — the
// session keeps its decomposition, and the next queries recompute and
// match the naive reference.
func TestMutateChaosNoPoisoning(t *testing.T) {
	defer faultinject.Reset()
	rng := rand.New(rand.NewSource(29))
	st := randMutable(rng, 10)
	s := NewWithCache(st, NewProgramCache())
	checkMutateAnswers(t, s, st, "initial")

	ms, err := s.Mutate(func(st *structure.Structure) error {
		st.MustAddTuple("c", 0)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ms.DeltaApplied || ms.Invalidated {
		t.Fatalf("covered edit: %+v, want a pure delta", ms)
	}
	faultinject.FailAt("session.build-td", 1)
	_, err = s.Eval(context.Background(), mso.MustParse(mutateQueries[0]), "x", core.Options{})
	faultinject.Reset()
	if !errors.Is(err, faultinject.ErrInjected) || stage.Of(err) != stage.BuildTD {
		t.Fatalf("faulted τ_td rebuild: err = %v, want the injected fault at %s", err, stage.BuildTD)
	}
	checkMutateAnswers(t, s, st, "post build-td fault")

	ms, err = s.Mutate(func(st *structure.Structure) error {
		st.RemoveTuple("c", 0)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ms.DeltaApplied || ms.ResultsDropped == 0 {
		t.Fatalf("covered edit: %+v, want delta applied with dropped results", ms)
	}
	faultinject.FailAt("datalog.ground-rule", 1)
	_, err = s.Eval(context.Background(), mso.MustParse(mutateQueries[0]), "x", core.Options{})
	faultinject.Reset()
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("faulted re-grounding: err = %v, want the injected fault", err)
	}
	checkMutateAnswers(t, s, st, "post grounding fault")
	if stats := s.Stats(); stats.Decompositions != 1 || stats.Invalidations != 0 || stats.TDBuilds != 3 {
		t.Errorf("Decompositions=%d Invalidations=%d TDBuilds=%d, want 1, 0 and 3 (a faulted query must not invalidate)",
			stats.Decompositions, stats.Invalidations, stats.TDBuilds)
	}
}

// ctxDoneSignal is a context that closes waiting the first time a
// caller selects on its Done channel.
type ctxDoneSignal struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (c *ctxDoneSignal) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// TestMutateDuringEvalCachesNoStaleResult is the regression test for a
// result cached across a concurrent edit. Eval reads the session's
// artifacts, then waits for its compiled program; a Mutate landing in
// that wait must not let the answer computed from the pre-edit
// artifacts be cached for the edited structure, where every later Eval
// of the formula would return it.
func TestMutateDuringEvalCachesNoStaleResult(t *testing.T) {
	st := randMutable(rand.New(rand.NewSource(37)), 10)
	pc := NewProgramCache()
	s := NewWithCache(st, pc)
	ctx := context.Background()
	w, err := s.Width(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Hold the formula's compilation in flight, so that Eval, having
	// read its artifacts, waits on the program cache.
	phi := mso.MustParse("~c(x)")
	opts := core.Options{Width: w}
	compiled, err := core.Compile(st.Sig(), phi, "x", opts)
	if err != nil {
		t.Fatal(err)
	}
	held, release := make(chan struct{}), make(chan struct{})
	compileErr := make(chan error, 1)
	go func() {
		_, _, err := pc.c.Do(ctx, keyFor(st.Sig(), phi, "x", opts), func() (*core.Compiled, error) {
			close(held)
			<-release
			return compiled, nil
		})
		compileErr <- err
	}()
	<-held

	waiting := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, err := s.Eval(&ctxDoneSignal{Context: ctx, waiting: waiting}, phi, "x", core.Options{})
		errc <- err
	}()
	<-waiting
	if _, err := s.Mutate(func(st *structure.Structure) error {
		if st.Has("c", 3) {
			st.RemoveTuple("c", 3)
		} else {
			st.MustAddTuple("c", 3)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-compileErr; err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	checkMutateAnswers(t, s, st, "after the edit")
}

// TestConcurrentMutateEval is the -race regression for the structure
// mutation contract: Mutate edits racing concurrent evaluations and
// views must serialize, and the session must answer correctly after the
// dust settles.
func TestConcurrentMutateEval(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	st := randMutable(rng, 10)
	s := NewWithCache(st, NewProgramCache())
	ctx := context.Background()
	phi := mso.MustParse("c(x)")
	if _, err := s.Eval(ctx, phi, "x", core.Options{}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 15; i++ {
			v := i % 10
			if _, err := s.Mutate(func(st *structure.Structure) error {
				if st.Has("c", v) {
					st.RemoveTuple("c", v)
				} else {
					st.MustAddTuple("c", v)
				}
				return nil
			}); err != nil {
				t.Errorf("mutate %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 15; i++ {
			if _, err := s.Eval(ctx, phi, "x", core.Options{}); err != nil {
				t.Errorf("eval %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 15; i++ {
			s.View(func(st *structure.Structure) { _ = st.NumTuples() })
		}
	}()
	wg.Wait()
	checkMutateAnswers(t, s, st, "post-race")
}

// The tests below pin that the session files every in-flight and
// cached computation under the fingerprint of the artifacts it reads,
// and that this fingerprint names the structure the computation
// actually read. Three hold a pre-edit computation in flight, edit, and
// then issue a request with a context that reports when it starts
// waiting on another request's computation; the held computation is
// released only then, or once the request is done: a request issued
// after Mutate returns must not share the pre-edit computation. Two
// let a computation read its artifacts, then reach the structure only
// after an edit, which a Mutate waiting for the structure lock behind a
// reader arranges.

// TestMutateEvalJoinsNoStaleFlight: an evaluation that read the
// pre-edit artifacts and then waited for the structure lock behind a
// pending Mutate must not answer an Eval issued after the edit.
func TestMutateEvalJoinsNoStaleFlight(t *testing.T) {
	st := randMutable(rand.New(rand.NewSource(37)), 10)
	s := NewWithCache(st, NewProgramCache())
	ctx := context.Background()
	phi := mso.MustParse("~c(x)")
	// Warm the artifacts and the compiled program; drop the result.
	if _, err := s.Eval(ctx, phi, "x", core.Options{}); err != nil {
		t.Fatal(err)
	}
	s.ShedResults()

	// Hold the first evaluation that gets to run, once its leader holds
	// the structure read lock; later ones pass.
	entered, release := make(chan struct{}), make(chan struct{})
	var held atomic.Bool
	testHookEvalStart = func() {
		if held.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
	}
	defer func() { testHookEvalStart = nil }()

	// A reader holds the structure lock, so Mutate waits for it, and so
	// does every reader that arrives while Mutate waits.
	endView := holdReadLock(s)
	mutated := make(chan error, 1)
	go func() {
		_, err := s.Mutate(func(st *structure.Structure) error {
			if st.Has("c", 3) {
				st.RemoveTuple("c", 3)
			} else {
				st.MustAddTuple("c", 3)
			}
			return nil
		})
		mutated <- err
	}()
	waitForPendingMutate(s)

	// Two pre-edit Evals: once one waits on the other, the leader's
	// evaluation is in flight over the pre-edit artifacts.
	waitA, waitB := make(chan struct{}), make(chan struct{})
	pre := make(chan error, 2)
	for _, w := range []chan struct{}{waitA, waitB} {
		go func(w chan struct{}) {
			_, err := s.Eval(&ctxDoneSignal{Context: ctx, waiting: w}, phi, "x", core.Options{})
			pre <- err
		}(w)
	}
	select {
	case <-waitA:
	case <-waitB:
	}
	close(endView)
	if err := <-mutated; err != nil {
		t.Fatal(err)
	}
	<-entered

	var got *core.Result
	var gotErr error
	waiting, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		got, gotErr = s.Eval(&ctxDoneSignal{Context: ctx, waiting: waiting}, phi, "x", core.Options{})
	}()
	select {
	case <-waiting:
	case <-done:
	}
	close(release)
	<-done
	for i := 0; i < 2; i++ {
		if err := <-pre; err != nil {
			t.Fatal(err)
		}
	}
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	want, err := mso.Query(st, phi, "x", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Selected.Equal(want) {
		t.Fatalf("Eval after the edit selected %v, want %v", got.Selected.Elems(), want.Elems())
	}
	checkMutateAnswers(t, s, st, "after the edit")
}

// TestMutateGameEvalRereadsEditedArtifacts: an evaluation that read
// its artifacts before an edit but reaches the structure after it must
// start over from the edited artifacts. The game backend reads the
// structure as it evaluates, so evaluating on the pre-edit nice form
// would fail on the element the edit added.
func TestMutateGameEvalRereadsEditedArtifacts(t *testing.T) {
	st := randMutable(rand.New(rand.NewSource(37)), 10)
	s := NewWithCache(st, NewProgramCache())
	ctx := context.Background()
	phi := mso.MustParse("c(x)")
	opts := core.Options{Backend: "game"}
	// Warm the artifacts and the nice form; drop the result.
	if _, err := s.Eval(ctx, phi, "x", opts); err != nil {
		t.Fatal(err)
	}
	s.ShedResults()

	endView := holdReadLock(s)
	mutated := make(chan error, 1)
	go func() {
		_, err := s.Mutate(func(st *structure.Structure) error {
			st.AddElem("v10")
			return st.AddFact("c", "v10")
		})
		mutated <- err
	}()
	waitForPendingMutate(s)

	// Two Evals over the pre-edit artifacts: once one waits on the
	// other, the leader's evaluation is in flight and waits for the read
	// lock behind the Mutate.
	waitA, waitB := make(chan struct{}), make(chan struct{})
	type outcome struct {
		res *core.Result
		err error
	}
	out := make(chan outcome, 2)
	for _, w := range []chan struct{}{waitA, waitB} {
		go func(w chan struct{}) {
			res, err := s.Eval(&ctxDoneSignal{Context: ctx, waiting: w}, phi, "x", opts)
			out <- outcome{res, err}
		}(w)
	}
	select {
	case <-waitA:
	case <-waitB:
	}
	close(endView)
	if err := <-mutated; err != nil {
		t.Fatal(err)
	}
	want, err := mso.Query(st, phi, "x", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		o := <-out
		if o.err != nil {
			t.Fatalf("game Eval across the edit: %v", o.err)
		}
		if !o.res.Selected.Equal(want) {
			t.Fatalf("game Eval across the edit selected %v, want %v", o.res.Selected.Elems(), want.Elems())
		}
	}
}

// holdReadLock holds s's structure read lock, as a View does, until the
// returned channel is closed.
func holdReadLock(s *Session) chan<- struct{} {
	viewing, end := make(chan struct{}), make(chan struct{})
	go s.View(func(*structure.Structure) { close(viewing); <-end })
	<-viewing
	return end
}

// waitForPendingMutate returns once a Mutate waits for s's structure
// lock: from then on, new readers queue behind it.
func waitForPendingMutate(s *Session) {
	for s.stMu.TryRLock() {
		s.stMu.RUnlock()
		runtime.Gosched()
	}
}

// TestMutateFrontEndFilesWhatItRead: a front-end build that began
// before an edit reads the edited structure, so what is computed from
// it must be filed under the edited structure's fingerprint. Filed
// under the pre-edit one, the nice form of the edited structure would
// answer for the pre-edit structure once the edit is undone.
func TestMutateFrontEndFilesWhatItRead(t *testing.T) {
	st := randMutable(rand.New(rand.NewSource(37)), 10)
	s := NewWithCache(st, NewProgramCache())
	ctx := context.Background()

	// The build starts on the cold session while a Mutate that retracts
	// the last path edge waits for the structure lock. Each stage reads
	// the structure under the read lock, which queues behind the pending
	// Mutate, so however the two interleave the build reads the
	// retracted structure. Undoing the edit gives back the pre-edit
	// fingerprint.
	endView := holdReadLock(s)
	mutated := make(chan error, 1)
	go func() {
		_, err := s.Mutate(func(st *structure.Structure) error {
			st.RemoveTuple("e", 8, 9)
			return nil
		})
		mutated <- err
	}()
	waitForPendingMutate(s)
	hold := &nicePollHold{Context: ctx, entered: make(chan struct{}), release: make(chan struct{})}
	built := make(chan error, 1)
	go func() {
		_, err := s.NiceForm(hold)
		built <- err
	}()
	close(endView)
	if err := <-mutated; err != nil {
		t.Fatal(err)
	}

	// The build read the retracted structure; hold its normalization
	// while the edit is undone.
	<-hold.entered
	if _, err := s.Mutate(func(st *structure.Structure) error {
		st.MustAddTuple("e", 8, 9)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	close(hold.release)
	if err := <-built; err != nil {
		t.Fatal(err)
	}

	nice, err := s.NiceForm(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := nice.Validate(st); err != nil {
		t.Fatalf("nice form after undoing the edit does not decompose the structure: %v", err)
	}
	checkMutateAnswers(t, s, st, "after undoing the edit")
}

// heldSelect is freeSelect whose first Leaf blocks until release is
// closed, holding its solve in flight. It shares freeSelect's name, so
// the two share solver-cache keys.
type heldSelect struct {
	freeSelect
	once             *sync.Once
	entered, release chan struct{}
}

func (h heldSelect) Leaf(dst []solver.Out[uint64], node int, bag []int) []solver.Out[uint64] {
	h.once.Do(func() { close(h.entered); <-h.release })
	return h.freeSelect.Leaf(dst, node, bag)
}

// TestMutateSolveJoinsNoStaleFlight: a solve running over the pre-edit
// nice form must not answer a SolveCount issued after an edit added an
// element.
func TestMutateSolveJoinsNoStaleFlight(t *testing.T) {
	st := randMutable(rand.New(rand.NewSource(37)), 10)
	s := NewWithCache(st, NewProgramCache())
	ctx := context.Background()
	held := heldSelect{once: new(sync.Once), entered: make(chan struct{}), release: make(chan struct{})}
	stale := make(chan error, 1)
	go func() {
		_, err := SolveCount(ctx, s, held)
		stale <- err
	}()
	<-held.entered
	if _, err := s.Mutate(func(st *structure.Structure) error {
		st.AddElem("v10")
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	var got *big.Int
	var gotErr error
	waiting, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		got, gotErr = SolveCount(&ctxDoneSignal{Context: ctx, waiting: waiting}, s, freeSelect{})
	}()
	select {
	case <-waiting:
	case <-done:
	}
	close(held.release)
	<-done
	if err := <-stale; err != nil {
		t.Fatal(err)
	}
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if want := big.NewInt(1 << 11); got.Cmp(want) != 0 {
		t.Fatalf("SolveCount after the edit = %v, want %v", got, want)
	}
}

// nicePollHold is a context whose Err, called from the poll that
// tree.NormalizeNiceCtx makes before normalizing, blocks the first time
// until release is closed: it holds a nice normalization in flight.
type nicePollHold struct {
	context.Context
	once             sync.Once
	entered, release chan struct{}
}

func (c *nicePollHold) Err() error {
	var pc [1]uintptr
	runtime.Callers(2, pc[:])
	if f, _ := runtime.CallersFrames(pc[:]).Next(); f.Function == "repro/internal/tree.NormalizeNiceCtx" {
		c.once.Do(func() { close(c.entered); <-c.release })
	}
	return c.Context.Err()
}

// TestMutateGameEvalJoinsNoStaleNiceForm: a nice normalization of the
// pre-edit decomposition must not feed a game-backend Eval issued after
// an edit added an element.
func TestMutateGameEvalJoinsNoStaleNiceForm(t *testing.T) {
	st := randMutable(rand.New(rand.NewSource(37)), 10)
	s := NewWithCache(st, NewProgramCache())
	ctx := context.Background()
	if _, err := s.Width(ctx); err != nil {
		t.Fatal(err)
	}
	hold := &nicePollHold{Context: ctx, entered: make(chan struct{}), release: make(chan struct{})}
	stale := make(chan error, 1)
	go func() {
		_, err := s.NiceForm(hold)
		stale <- err
	}()
	<-hold.entered
	if _, err := s.Mutate(func(st *structure.Structure) error {
		st.AddElem("v10")
		return st.AddFact("c", "v10")
	}); err != nil {
		t.Fatal(err)
	}

	phi := mso.MustParse("c(x)")
	var got *core.Result
	var gotErr error
	waiting, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		got, gotErr = s.Eval(&ctxDoneSignal{Context: ctx, waiting: waiting}, phi, "x", core.Options{Backend: "game"})
	}()
	select {
	case <-waiting:
	case <-done:
	}
	close(hold.release)
	<-done
	if err := <-stale; err != nil {
		t.Fatal(err)
	}
	if gotErr != nil {
		t.Fatalf("game Eval after the edit: %v", gotErr)
	}
	want, err := mso.Query(st, phi, "x", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Selected.Equal(want) {
		t.Fatalf("game Eval after the edit selected %v, want %v", got.Selected.Elems(), want.Elems())
	}
}
