package bench

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/datalog"
	"repro/internal/stage"
)

// TDChainProgram builds the τ_td workload of the streaming-engine
// comparison: a monadic program in the style of Theorem 4.5's output — k type
// predicates, each propagating bottom-up along child1 — over a
// chain-shaped tree decomposition. Compiled MSO programs carry one rule
// family per k-type, so k scales the |P| factor of Theorem 4.4's
// |P|·|A| grounding exactly the way real compilations do: the grounding
// materializes Θ(k·n) Horn clauses while the streaming engine's direct
// path holds O(1) rows in flight per rule.
func TDChainProgram(k int) *datalog.Program {
	src := ""
	for i := 0; i < k; i++ {
		src += fmt.Sprintf("theta%d(V) :- bag(V, X0, X1), leaf(V), e(X0, X1).\n", i)
		src += fmt.Sprintf("theta%d(V) :- bag(V, X0, X1), child1(V1, V), theta%d(V1), bag(V1, Y0, Y1), e(X0, X1).\n", i, i)
	}
	src += "accept :- root(V), theta0(V).\n"
	return datalog.MustParse(src)
}

// TDChain builds the τ_td EDB of a chain decomposition with n bags
// (4n+2 facts), the workload TDChainProgram runs over.
func TDChain(n int) *datalog.DB {
	db := datalog.NewDB()
	node := func(i int) string { return "s" + strconv.Itoa(i) }
	elem := func(i int) string { return "x" + strconv.Itoa(i) }
	for i := 0; i < n; i++ {
		db.AddFact("bag", node(i), elem(i), elem(i+1))
		if i == 0 {
			db.AddFact("leaf", node(i))
		} else {
			db.AddFact("child1", node(i-1), node(i))
		}
		db.AddFact("e", elem(i), elem(i+1))
	}
	db.AddFact("root", node(n-1))
	return db
}

// RAResult is the BENCH_ra.json payload: the streaming engine's direct
// fixpoint on the τ_td chain workload (medians of reps) against the
// Theorem 4.4 pipeline on the same inputs; the budget rows demonstrate
// that a run killed by MaxGroundAtoms under grounding completes under
// the same budget on the streaming path.
type RAResult struct {
	N          int `json:"n"`
	GroundLits int `json:"ground_lits"` // |P'| of the Theorem 4.4 grounding
	Facts      int `json:"facts"`       // facts in the computed fixpoint
	Reps       int `json:"reps"`

	StreamNS    int64 `json:"stream_ns"`
	StreamBytes int64 `json:"stream_bytes"`
	GroundedNS  int64 `json:"grounded_ns"`
	GroundedBy  int64 `json:"grounded_bytes"`

	// GroundedAllocRatio is grounded bytes over streaming bytes.
	GroundedAllocRatio float64 `json:"grounded_alloc_ratio"`

	TuplesStreamed  int64 `json:"tuples_streamed"`
	JoinsPushedDown int64 `json:"joins_pushed_down"`
	PeakBuffered    int64 `json:"peak_buffered_tuples"`

	// Budget demo: the grounded path dies on MaxGroundAtoms = BudgetCap
	// while the streaming direct path completes under the same cap.
	BudgetCap        int64  `json:"budget_cap"`
	GroundedBudget   string `json:"grounded_budget_error"`
	DirectUnderCap   bool   `json:"direct_completes_under_cap"`
	DirectBudgetNS   int64  `json:"direct_under_cap_ns"`
	DirectBudgetFact int    `json:"direct_under_cap_facts"`
}

// measureAlloc runs f and returns its wall time and allocation volume
// (TotalAlloc delta, the B/op numerator), collecting garbage first so
// prior runs' floats don't bleed in.
func measureAlloc(f func() error) (time.Duration, int64, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := f()
	dur := time.Since(start)
	runtime.ReadMemStats(&m1)
	return dur, int64(m1.TotalAlloc - m0.TotalAlloc), err
}

func median(xs []int64) int64 {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs[len(xs)/2]
}

// RATypes is the number of type-predicate families in the RACompare
// workload program; see TDChainProgram.
const RATypes = 8

// RACompare runs the streaming engine on the n-bag τ_td chain with
// RATypes type families: direct evaluations (medians of reps), one
// grounded evaluation, and the MaxGroundAtoms budget demonstration.
// Every leg checks the fixpoint derives accept, so a wrong answer fails
// the benchmark rather than skewing it.
func RACompare(ctx context.Context, n, reps int) (*RAResult, error) {
	if reps < 1 {
		reps = 1
	}
	prog, edb := TDChainProgram(RATypes), TDChain(n)
	res := &RAResult{N: n, Reps: reps}

	// EvalCtx clones internally and never mutates edb, so the direct
	// runs share one EDB; the grounded leg interns into its input and
	// gets a pre-made clone outside the measured region.
	var collector datalog.StatsCollector
	runDirect := func() (time.Duration, int64, error) {
		rctx := datalog.WithStatsCollector(ctx, &collector)
		return measureAlloc(func() error {
			out, err := datalog.EvalCtx(rctx, prog, edb)
			if err != nil {
				return err
			}
			if !out.Has("accept") {
				return fmt.Errorf("bench: ra(%d): accept not derived", n)
			}
			res.Facts = out.NumFacts()
			return nil
		})
	}

	// Keep per-rep samples and report medians.
	var sNS, sBy []int64
	for r := 0; r < reps; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		dur, bytes, err := runDirect()
		if err != nil {
			return nil, err
		}
		sNS, sBy = append(sNS, dur.Nanoseconds()), append(sBy, bytes)
	}
	res.StreamNS, res.StreamBytes = median(sNS), median(sBy)
	es := collector.Snapshot()
	res.TuplesStreamed = es.TuplesStreamed / int64(reps)
	res.JoinsPushedDown = es.JoinsPushedDown
	res.PeakBuffered = es.PeakBufferedTuples

	// Grounded leg (Theorem 4.4): size the ground program, then time the
	// full ground-and-solve evaluation once (it dwarfs the direct legs).
	g, err := datalog.GroundCtx(ctx, prog, edb.Clone(), datalog.TDFuncDeps(1))
	if err != nil {
		return nil, err
	}
	res.GroundLits = g.Horn.Size()
	gedb := edb.Clone()
	dur, bytes, err := measureAlloc(func() error {
		out, err := datalog.EvalQuasiGuardedCtx(ctx, prog, gedb, datalog.TDFuncDeps(1))
		if err != nil {
			return err
		}
		if !out.Has("accept") {
			return fmt.Errorf("bench: ra(%d): grounded accept not derived", n)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.GroundedNS, res.GroundedBy = dur.Nanoseconds(), bytes

	if res.StreamBytes > 0 {
		res.GroundedAllocRatio = float64(res.GroundedBy) / float64(res.StreamBytes)
	}

	// Budget demonstration: cap ground-atom interning below what the
	// grounding needs (it interns one theta0 atom per bag). The grounded
	// path must die with a budget error; the direct streaming path runs
	// under an identically-capped fresh budget and completes, because it
	// never materializes the ground program.
	res.BudgetCap = int64(n / 2)
	bctx := stage.WithBudget(ctx, &stage.Budget{MaxGroundAtoms: res.BudgetCap})
	if _, err := datalog.EvalQuasiGuardedCtx(bctx, prog, edb.Clone(), datalog.TDFuncDeps(1)); err != nil {
		res.GroundedBudget = err.Error()
	} else {
		return nil, fmt.Errorf("bench: ra(%d): grounding survived MaxGroundAtoms=%d", n, res.BudgetCap)
	}
	bctx = stage.WithBudget(ctx, &stage.Budget{MaxGroundAtoms: res.BudgetCap})
	dur, _, err = measureAlloc(func() error {
		out, err := datalog.EvalCtx(bctx, prog, edb)
		if err != nil {
			return err
		}
		if !out.Has("accept") {
			return fmt.Errorf("bench: ra(%d): capped direct run lost accept", n)
		}
		res.DirectBudgetFact = out.NumFacts()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("bench: ra(%d): direct path under MaxGroundAtoms=%d: %w", n, res.BudgetCap, err)
	}
	res.DirectUnderCap = true
	res.DirectBudgetNS = dur.Nanoseconds()
	return res, nil
}
