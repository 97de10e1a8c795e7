package datalog

import (
	"context"
	"errors"
	"strconv"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/stage"
)

// tcProgram is the transitive-closure workload the semi-naive engine
// tests share: rule 2 joins the recursive predicate against the edge
// index, so it exercises the delta-first join order and index probes.
const tcProgramSrc = "path(X, Y) :- edge(X, Y).\npath(X, Z) :- path(X, Y), edge(Y, Z)."

func chainEDB(n int) *DB {
	db := NewDB()
	for i := 0; i < n; i++ {
		db.AddFact("edge", "v"+strconv.Itoa(i), "v"+strconv.Itoa(i+1))
	}
	return db
}

// TestStreamPlanBuiltOncePerRule pins the plan-once contract: the
// number of slot plans built during an evaluation depends only on
// the program's (rule, delta-occurrence) instances, never on how many
// semi-naive rounds run. A 10-edge and a 60-edge chain take very
// different round counts but must build exactly the same three plans
// (two full first-pass instances plus rule 2's delta occurrence).
func TestStreamPlanBuiltOncePerRule(t *testing.T) {
	p := MustParse(tcProgramSrc)
	builds := func(n int) int64 {
		before := PlanBuilds()
		if _, err := Eval(p, chainEDB(n)); err != nil {
			t.Fatal(err)
		}
		return PlanBuilds() - before
	}
	small, large := builds(10), builds(60)
	if small != large {
		t.Fatalf("plan builds scale with round count: %d at n=10 vs %d at n=60", small, large)
	}
	if small != 3 {
		t.Fatalf("plan builds = %d, want 3 (one per (rule, delta occurrence) instance)", small)
	}
}

// TestStreamingCancelMidJoin pins mid-join cancellation: a rule's join
// polls the context every 1024 join steps, so a deadline expiring inside
// one huge stratum stops the semi-naive engine promptly with a
// stage-tagged context error — without waiting for the round, stratum,
// or fixpoint to finish.
func TestStreamingCancelMidJoin(t *testing.T) {
	p := MustParse(tcProgramSrc)
	db := chainEDB(3000)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := EvalCtx(ctx, p, db)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if got := stage.Of(err); got != stage.Eval {
		t.Fatalf("tagged stage %q, want %q", got, stage.Eval)
	}
}

// TestChaosStreamingJoinFault injects at the semi-naive join's
// per-derived-row fault point: the evaluation must stop with a
// stage-tagged injected error, and a clean rerun over the same inputs
// must still reach the full fixpoint (no partial state cached across
// runs).
func TestChaosStreamingJoinFault(t *testing.T) {
	defer faultinject.Reset()
	p := MustParse(tcProgramSrc)
	db := chainEDB(8)
	faultinject.FailAt("datalog.join", 2)
	_, err := Eval(p, db)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if got := stage.Of(err); got != stage.Eval {
		t.Fatalf("tagged stage %q, want %q", got, stage.Eval)
	}

	faultinject.Reset()
	out, err := Eval(p, db)
	if err != nil {
		t.Fatalf("clean rerun: %v", err)
	}
	if got := len(out.Tuples("path")); got != 36 {
		t.Fatalf("clean rerun derived %d path facts, want 36", got)
	}
}

// TestStreamTuplesBudgetExceeded pins the semi-naive engine's work
// meter: join steps are charged against Budget.MaxStreamTuples, and
// blowing the cap surfaces as a stage-tagged *stage.BudgetError naming
// the stream-tuples dimension.
func TestStreamTuplesBudgetExceeded(t *testing.T) {
	p := MustParse(tcProgramSrc)
	db := chainEDB(150)
	b := &stage.Budget{MaxStreamTuples: 100}
	_, err := EvalCtx(stage.WithBudget(context.Background(), b), p, db)
	if !errors.Is(err, stage.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want budget exceeded", err)
	}
	var be *stage.BudgetError
	if !errors.As(err, &be) || be.Dimension != "stream-tuples" {
		t.Fatalf("err = %v, want *stage.BudgetError on stream-tuples", err)
	}
	if got := stage.Of(err); got != stage.Eval {
		t.Fatalf("tagged stage %q, want %q", got, stage.Eval)
	}
	if b.StreamTuplesUsed() <= 100 {
		t.Fatalf("StreamTuplesUsed = %d, want > limit at the point of violation", b.StreamTuplesUsed())
	}

	// The same run completes untouched under no cap.
	if _, err := Eval(p, db); err != nil {
		t.Fatalf("uncapped rerun: %v", err)
	}
}

// TestEngineStatsCollector pins the stats plumbing: an evaluation run
// under a context-attached collector reports its join steps and peak
// buffered tuples to that collector.
func TestEngineStatsCollector(t *testing.T) {
	t.Parallel()
	p := MustParse(tcProgramSrc)
	db := chainEDB(200) // large enough to clear parallelThreshold
	var c StatsCollector
	ctx := stage.WithWorkers(context.Background(), 4) // force the parallel buffered path
	if _, err := EvalCtx(WithStatsCollector(ctx, &c), p, db); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	if snap.TuplesStreamed == 0 {
		t.Fatal("collector saw no join steps")
	}
	if snap.PeakBufferedTuples == 0 {
		t.Fatal("collector saw no peak buffered tuples from the parallel rounds")
	}

	// A second evaluation without the collector must not leak into it.
	if _, err := Eval(p, db); err != nil {
		t.Fatal(err)
	}
	if again := c.Snapshot(); again != snap {
		t.Fatalf("collector changed without an attached run: %+v vs %+v", again, snap)
	}
}
