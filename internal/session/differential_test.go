package session

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mso"
	"repro/internal/structure"
)

// diffFormulas is the randomized-differential pool: unary queries of
// rank ≤ 1 that mention only c/1. They compile over the reduct {c/1} on
// any structure, binary relations included; a rank-1 formula that
// mentions a binary predicate still blows up the generic compilation
// (see core.TestBinarySignatureBlowUp).
var diffFormulas = []string{
	"c(x)",
	"~c(x)",
	"c(x) & exists y ~c(y)",
	"c(x) | forall y c(y)",
	"~c(x) & exists y c(y)",
	"c(x) -> exists y ~c(y)",
}

// diffSentences are decision instances for the same differential check.
var diffSentences = []string{
	"forall x c(x)",
	"exists x c(x)",
	"exists x ~c(x)",
}

// TestSessionDifferentialAgainstColdRun cross-checks the cached path
// against the cold pipeline: over randomized structures and formulas, a
// warm Session.Eval must return exactly the set (and decision) that a
// fresh core.Run computes.
func TestSessionDifferentialAgainstColdRun(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ctx := context.Background()
	for trial := 0; trial < 6; trial++ {
		st := randColored(rng, rng.Intn(4)+2)
		s := NewWithCache(st, NewProgramCache())
		for _, q := range diffFormulas {
			phi := mso.MustParse(q)
			warm, err := s.Eval(ctx, phi, "x", core.Options{})
			if err != nil {
				t.Fatalf("trial %d, session eval %q: %v", trial, q, err)
			}
			cold, err := core.Run(st, phi, "x", core.Options{})
			if err != nil {
				t.Fatalf("trial %d, cold run %q: %v", trial, q, err)
			}
			if !warm.Selected.Equal(cold.Selected) {
				t.Fatalf("trial %d, query %q: session selected %v, cold selected %v\n(structure:\n%s)",
					trial, q, warm.Selected.Elems(), cold.Selected.Elems(), st)
			}
			if warm.Width != cold.Width {
				t.Fatalf("trial %d, query %q: session width %d, cold width %d", trial, q, warm.Width, cold.Width)
			}
			// The repeat is served from the result cache and must be
			// identical to the cold run too.
			cached, err := s.Eval(ctx, phi, "x", core.Options{})
			if err != nil {
				t.Fatalf("trial %d, cached eval %q: %v", trial, q, err)
			}
			if !cached.Selected.Equal(cold.Selected) || cached.Holds != cold.Holds {
				t.Fatalf("trial %d, query %q: result-cache hit diverged from cold run", trial, q)
			}
		}
		for _, q := range diffSentences {
			phi := mso.MustParse(q)
			warm, err := s.Eval(ctx, phi, "", core.Options{Decision: true})
			if err != nil {
				t.Fatalf("trial %d, session decision %q: %v", trial, q, err)
			}
			cold, err := core.Run(st, phi, "", core.Options{Decision: true})
			if err != nil {
				t.Fatalf("trial %d, cold decision %q: %v", trial, q, err)
			}
			if warm.Holds != cold.Holds {
				t.Fatalf("trial %d, sentence %q: session %v, cold %v\n(structure:\n%s)",
					trial, q, warm.Holds, cold.Holds, st)
			}
		}
		// After the whole pool, the front end still ran exactly once and
		// every repeat hit the result cache.
		stats := s.Stats()
		if stats.Decompositions != 1 || stats.TupleNormalizations != 1 || stats.TDBuilds != 1 {
			t.Fatalf("trial %d: front end reran: %+v", trial, stats)
		}
		if stats.ResultCacheHits != len(diffFormulas) {
			t.Fatalf("trial %d: ResultCacheHits = %d, want %d", trial, stats.ResultCacheHits, len(diffFormulas))
		}
	}
}

// coloredPartialKTree returns a random partial k-tree on n elements
// over {edge/2, c/1}, each element colored with probability ½.
func coloredPartialKTree(rng *rand.Rand, n, k int) *structure.Structure {
	st := structure.New(structure.MustSignature(
		structure.Predicate{Name: "edge", Arity: 2},
		structure.Predicate{Name: "c", Arity: 1},
	))
	for i := 0; i < n; i++ {
		st.AddElem(fmt.Sprintf("v%d", i))
	}
	for _, e := range graph.PartialKTree(n, k, 0.2, rng).Edges() {
		st.MustAddTuple("edge", e[0], e[1])
	}
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			st.MustAddTuple("c", i)
		}
	}
	return st
}

// TestReductDifferentialPartialKTrees runs the differential pool over
// colored partial k-trees (k ≤ 2) whose edge relation no formula
// mentions, so every automaton evaluation compiles over the reduct
// {c/1} while τ_td carries the edges. On every structure, a session
// Eval and the game backend must agree with the naive checker on every
// formula and sentence. Each core.Run compiles afresh, so the cold
// pipeline checks one formula and one sentence per structure, in
// rotation: every pool member meets it on at least eight structures.
func TestReductDifferentialPartialKTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	ctx := context.Background()
	pc := NewProgramCache()
	const structures = 50
	for i := 0; i < structures; i++ {
		st := coloredPartialKTree(rng, 5+rng.Intn(6), 1+rng.Intn(2))
		s := NewWithCache(st, pc)
		check := func(q string, cold bool, xVar string, opts core.Options, agree func(*core.Result) error) {
			t.Helper()
			phi := mso.MustParse(q)
			evals := map[string]func() (*core.Result, error){
				"session": func() (*core.Result, error) { return s.Eval(ctx, phi, xVar, opts) },
				"game": func() (*core.Result, error) {
					game := opts
					game.Backend = "game"
					return s.Eval(ctx, phi, xVar, game)
				},
			}
			if cold {
				evals["core.Run"] = func() (*core.Result, error) { return core.Run(st, phi, xVar, opts) }
			}
			for name, eval := range evals {
				res, err := eval()
				if err != nil {
					t.Fatalf("structure %d, %s %q: %v", i, name, q, err)
				}
				if err := agree(res); err != nil {
					t.Fatalf("structure %d, %s %q: %v\n(structure:\n%s)", i, name, q, err, st)
				}
			}
		}
		for j, q := range diffFormulas {
			want, err := mso.Query(st, mso.MustParse(q), "x", nil)
			if err != nil {
				t.Fatal(err)
			}
			check(q, j == i%len(diffFormulas), "x", core.Options{}, func(res *core.Result) error {
				if !res.Selected.Equal(want) {
					return fmt.Errorf("selected %v, naive %v", res.Selected.Elems(), want.Elems())
				}
				return nil
			})
		}
		for j, q := range diffSentences {
			want, err := mso.Sentence(st, mso.MustParse(q), nil)
			if err != nil {
				t.Fatal(err)
			}
			check(q, j == i%len(diffSentences), "", core.Options{Decision: true}, func(res *core.Result) error {
				if res.Holds != want {
					return fmt.Errorf("holds %v, naive %v", res.Holds, want)
				}
				return nil
			})
		}
	}
}

// BenchmarkSessionReuse measures what a session saves: ten queries over
// one structure through a warm Session versus ten cold core.Run calls
// that redo decomposition, normalization, τ_td build, compilation and
// evaluation each time. The warm path is the steady state of a repeated
// workload — artifacts, compiled programs and memoized results all hit.
// The first pass, where every query still evaluates, is pinned as a
// count by TestConcurrentDistinctQueriesOneBuild: one front-end build
// for ten queries.
func BenchmarkSessionReuse(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	st := randColored(rng, 40)
	phis := make([]*mso.Formula, len(tenQueries))
	for i, q := range tenQueries {
		phis[i] = mso.MustParse(q)
	}
	ctx := context.Background()

	b.Run("warm-session", func(b *testing.B) {
		s := NewWithCache(st, NewProgramCache())
		// Prime artifacts and programs once, outside the timer.
		for _, phi := range phis {
			if _, err := s.Eval(ctx, phi, "x", core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, phi := range phis {
				if _, err := s.Eval(ctx, phi, "x", core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	b.Run("cold-run", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, phi := range phis {
				if _, err := core.Run(st, phi, "x", core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// TestWarmEvalAllocGate gates the allocations of one warm Eval: a
// result-cache hit for the compiled c(x) over a 40-element colored
// structure, the path every repeated query takes. Allocation counts are
// deterministic, so the count may not exceed the 11 measured (go1.24,
// linux/amd64); the bytes are gated at 1.10x the 1,000 measured.
func TestWarmEvalAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are gated without -race")
	}
	const measured, measuredBytes = 11, 1000
	s := NewWithCache(randColored(rand.New(rand.NewSource(3)), 40), NewProgramCache())
	ctx := context.Background()
	phi := mso.MustParse("c(x)")
	eval := func() {
		if _, err := s.Eval(ctx, phi, "x", core.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	eval() // the one evaluation; every later call is a result-cache hit
	allocs := testing.AllocsPerRun(100, eval)
	t.Logf("%.0f allocations per warm Eval (ceiling %d)", allocs, measured)
	if allocs > measured {
		t.Fatalf("%.0f allocations per warm Eval, ceiling %d", allocs, measured)
	}
	const runs = 100
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		eval()
	}
	runtime.ReadMemStats(&m1)
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	t.Logf("%.0f B per warm Eval (ceiling %.0f)", bytes, 1.10*measuredBytes)
	if bytes > 1.10*measuredBytes {
		t.Fatalf("%.0f B per warm Eval, ceiling %.0f", bytes, 1.10*measuredBytes)
	}
	if evals := s.Stats().Evals; evals != 1 {
		t.Fatalf("Evals = %d, want 1: the gated calls must all hit the result cache", evals)
	}
}
