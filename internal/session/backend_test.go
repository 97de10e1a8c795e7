package session

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/mso"
	"repro/internal/stage"
	"repro/internal/structure"
)

func backendColoredPath(n int, seed int64) *structure.Structure {
	sig := structure.MustSignature(
		structure.Predicate{Name: "e", Arity: 2},
		structure.Predicate{Name: "c", Arity: 1},
	)
	rng := rand.New(rand.NewSource(seed))
	st := structure.New(sig)
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

func backendColorsOnly(n int, seed int64) *structure.Structure {
	sig := structure.MustSignature(structure.Predicate{Name: "c", Arity: 1})
	rng := rand.New(rand.NewSource(seed))
	st := structure.New(sig)
	for i := 0; i < n; i++ {
		st.AddElem(fmt.Sprintf("v%d", i))
		if rng.Intn(2) == 0 {
			st.MustAddTuple("c", i)
		}
	}
	return st
}

// TestBackendDifferentialWarmSession is the warm half of the
// differential suite: both backends evaluated through a session (cached
// artifacts, result cache) against the cold core pipeline, on colored
// paths (rank 0, binary signature) and colors-only structures (up to
// rank 2, including set quantifiers).
func TestBackendDifferentialWarmSession(t *testing.T) {
	ctx := context.Background()
	type workload struct {
		st      *structure.Structure
		queries []string
	}
	workloads := []workload{
		{backendColoredPath(12, 31), []string{"c(x)", "~c(x)", "c(x) | ~c(x)"}},
		{backendColorsOnly(10, 37), []string{
			"c(x) & exists y ~c(y)",
			"c(x) | forall y c(y)",
			"exists Y (x in Y & forall z (z in Y -> c(z)))",
		}},
	}
	for wi, w := range workloads {
		sess := NewWithCache(w.st, NewProgramCache())
		for _, q := range w.queries {
			phi := mso.MustParse(q)
			for _, backend := range []string{"", "game"} {
				warm, err := sess.Eval(ctx, phi, "x", core.Options{Backend: backend})
				if err != nil {
					t.Fatalf("workload %d, %q, backend %q: session: %v", wi, q, backend, err)
				}
				cold, err := core.RunCtx(ctx, w.st, phi, "x", core.Options{Backend: backend})
				if err != nil {
					t.Fatalf("workload %d, %q, backend %q: cold: %v", wi, q, backend, err)
				}
				if !warm.Selected.Equal(cold.Selected) {
					t.Fatalf("workload %d, %q, backend %q: warm %v, cold %v", wi, q, backend, warm.Selected, cold.Selected)
				}
			}
		}
	}
}

// TestBackendCacheIsolation is the cross-backend cache-isolation
// regression: one session, one formula, evaluated under both backends —
// each must run its own evaluation (distinct result-cache keys), and a
// repeat under either backend must hit its own entry, never the
// other's.
func TestBackendCacheIsolation(t *testing.T) {
	ctx := context.Background()
	st := backendColoredPath(10, 41)
	sess := NewWithCache(st, NewProgramCache())
	phi := mso.MustParse("c(x)")

	ares, err := sess.Eval(ctx, phi, "x", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gres, err := sess.Eval(ctx, phi, "x", core.Options{Backend: "game"})
	if err != nil {
		t.Fatal(err)
	}
	if !ares.Selected.Equal(gres.Selected) {
		t.Fatalf("backends disagree: automaton %v, game %v", ares.Selected, gres.Selected)
	}
	stats := sess.Stats()
	if stats.Evals != 2 {
		t.Fatalf("Evals = %d after one query under two backends, want 2 (keys must be backend-distinct)", stats.Evals)
	}
	if stats.ResultCacheHits != 0 {
		t.Fatalf("ResultCacheHits = %d before any repeat, want 0", stats.ResultCacheHits)
	}
	if got := stats.EvalsByBackend["automaton"]; got != 1 {
		t.Fatalf("EvalsByBackend[automaton] = %d, want 1", got)
	}
	if got := stats.EvalsByBackend["game"]; got != 1 {
		t.Fatalf("EvalsByBackend[game] = %d, want 1", got)
	}

	// Repeats hit the per-backend entries without re-evaluating.
	if _, err := sess.Eval(ctx, phi, "x", core.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Eval(ctx, phi, "x", core.Options{Backend: "game"}); err != nil {
		t.Fatal(err)
	}
	stats = sess.Stats()
	if stats.Evals != 2 || stats.ResultCacheHits != 2 {
		t.Fatalf("after repeats: Evals = %d, ResultCacheHits = %d, want 2 and 2", stats.Evals, stats.ResultCacheHits)
	}

	// The explicit default name and the empty string are the same key.
	if _, err := sess.Eval(ctx, phi, "x", core.Options{Backend: core.DefaultBackend}); err != nil {
		t.Fatal(err)
	}
	if hits := sess.Stats().ResultCacheHits; hits != 3 {
		t.Fatalf("explicit %q backend missed the default entry (hits = %d, want 3)", core.DefaultBackend, hits)
	}
}

// TestGameEvalSkipsTauTD pins the game path's front end: a cold game
// Eval builds the raw decomposition and its nice form but neither the
// tuple form nor τ_td, which only the automaton program reads; its
// answer matches the automaton's, and the width assertion still holds,
// for a cached (formula, options) as for a new one.
func TestGameEvalSkipsTauTD(t *testing.T) {
	ctx := context.Background()
	st := backendColoredPath(10, 47)
	phi := mso.MustParse("c(x)")
	sess := NewWithCache(st, NewProgramCache())
	gres, err := sess.Eval(ctx, phi, "x", core.Options{Backend: "game"})
	if err != nil {
		t.Fatal(err)
	}
	stats := sess.Stats()
	if stats.Decompositions != 1 || stats.NiceNormalizations != 1 || stats.TupleNormalizations != 0 || stats.TDBuilds != 0 {
		t.Fatalf("cold game Eval: %+v, want 1 decomposition and 1 nice form, no tuple form or τ_td", stats)
	}
	ares, err := core.RunCtx(ctx, st, phi, "x", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !gres.Selected.Equal(ares.Selected) || gres.Width != ares.Width {
		t.Fatalf("game %v (width %d), automaton %v (width %d)", gres.Selected, gres.Width, ares.Selected, ares.Width)
	}
	wrong := core.Options{Backend: "game"}.RequestWidth(gres.Width + 1)
	for _, f := range []string{"~c(x)", "c(x)"} { // c(x)'s result is cached
		if _, err := sess.Eval(ctx, mso.MustParse(f), "x", wrong); err == nil || !strings.Contains(err.Error(), "does not match requested width") {
			t.Fatalf("game Eval of %s at the wrong requested width: err = %v", f, err)
		}
	}
	right := core.Options{Backend: "game"}.RequestWidth(gres.Width)
	if _, err := sess.Eval(ctx, mso.MustParse("~c(x)"), "x", right); err != nil {
		t.Fatalf("game Eval at the right requested width: %v", err)
	}
	if stats := sess.Stats(); stats.TupleNormalizations != 0 || stats.TDBuilds != 0 {
		t.Fatalf("after width-checked game Evals: %+v, want no tuple form or τ_td", stats)
	}
}

// TestBackendDifferentialConcurrent hammers one session with both
// backends concurrently under -race: every answer must match the
// sequential baseline, and the result cache must end with exactly one
// evaluation per (query, backend).
func TestBackendDifferentialConcurrent(t *testing.T) {
	ctx := context.Background()
	st := backendColoredPath(10, 43)
	queries := []string{"c(x)", "~c(x)"}
	baseline := make(map[string]*core.Result)
	for _, q := range queries {
		res, err := core.RunCtx(ctx, st, mso.MustParse(q), "x", core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		baseline[q] = res
	}

	sess := NewWithCache(st, NewProgramCache())
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 8; g++ {
		for _, q := range queries {
			for _, backend := range []string{"", "game"} {
				wg.Add(1)
				go func(q, backend string) {
					defer wg.Done()
					res, err := sess.Eval(ctx, mso.MustParse(q), "x", core.Options{Backend: backend})
					if err != nil {
						errc <- fmt.Errorf("%q backend %q: %w", q, backend, err)
						return
					}
					if !res.Selected.Equal(baseline[q].Selected) {
						errc <- fmt.Errorf("%q backend %q: diverged from baseline", q, backend)
					}
				}(q, backend)
			}
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	stats := sess.Stats()
	want := len(queries) * 2 // one eval per (query, backend)
	if stats.Evals != want {
		t.Fatalf("Evals = %d, want %d (single-flight per backend-keyed query)", stats.Evals, want)
	}
}

// TestChaosGameBackendSession injects game faults through the session
// layer: the failure must surface stage-tagged, must not be cached, and
// the post-fault retry must evaluate fresh and agree with the cold
// pipeline.
func TestChaosGameBackendSession(t *testing.T) {
	defer faultinject.Reset()
	ctx := context.Background()
	st := backendColoredPath(10, 47)
	phi := mso.MustParse("c(x)")
	cold, err := core.RunCtx(ctx, st, phi, "x", core.Options{Backend: "game"})
	if err != nil {
		t.Fatal(err)
	}

	for _, point := range []string{"game.expand", "game.memo"} {
		t.Run(point, func(t *testing.T) {
			sess := NewWithCache(backendColoredPath(10, 47), NewProgramCache())
			// Warm the artifacts so the fault lands in the evaluation, not
			// the front end.
			if _, err := sess.NiceForm(ctx); err != nil {
				t.Fatal(err)
			}
			faultinject.Reset()
			faultinject.FailAt(point, 1)
			_, err := sess.Eval(ctx, phi, "x", core.Options{Backend: "game"})
			if err == nil {
				t.Fatalf("injected fault at %s did not surface through the session", point)
			}
			if got := stage.Of(err); got == "" {
				t.Fatalf("fault at %s lost its stage tag: %v", point, err)
			}
			faultinject.Reset()
			res, err := sess.Eval(ctx, phi, "x", core.Options{Backend: "game"})
			if err != nil {
				t.Fatalf("retry after %s fault: %v", point, err)
			}
			if !res.Selected.Equal(cold.Selected) {
				t.Fatalf("retry after %s fault diverged from cold answer", point)
			}
			stats := sess.Stats()
			if stats.Evals != 1 {
				t.Fatalf("Evals = %d after fault+retry, want 1 (the failed run must not count or cache)", stats.Evals)
			}
		})
	}
}

// TestBackendUnknownInSession pins the error shape for a bogus backend
// name reaching Session.Eval.
func TestBackendUnknownInSession(t *testing.T) {
	sess := NewWithCache(backendColorsOnly(4, 3), NewProgramCache())
	_, err := sess.Eval(context.Background(), mso.MustParse("c(x)"), "x", core.Options{Backend: "quantum"})
	if err == nil {
		t.Fatal("unknown backend accepted")
	}
	var se *stage.Error
	if !errors.As(err, &se) {
		t.Fatalf("err = %T %v, want a stage-tagged error", err, err)
	}
}
