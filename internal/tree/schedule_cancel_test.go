package tree_test

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/decompose"
	"repro/internal/graph"
	"repro/internal/stage"
	"repro/internal/testutil/leak"
	"repro/internal/tree"
)

// cancelNice builds a nice decomposition large enough to cross the
// parallel threshold.
func cancelNice(t testing.TB, seed int64, n int) (*graph.Graph, *tree.Decomposition) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.PartialKTree(n, 3, 0.3, rng)
	d, err := decompose.Graph(g, decompose.MinFill)
	if err != nil {
		t.Fatal(err)
	}
	nice, err := tree.NormalizeNice(d, tree.NiceOptions{BranchGuard: true})
	if err != nil {
		t.Fatal(err)
	}
	if nice.Len() < tree.MinParallelNodes {
		t.Fatalf("decomposition too small (%d nodes) to exercise the pool", nice.Len())
	}
	return g, nice
}

// TestScheduleCancelMidRun cancels the context from inside a compute
// callback once the run is under way, with the full worker pool active.
// Schedule must stop with context.Canceled (unwrapped — evaluators add
// their own stage tag) and leave no worker goroutines behind. Run under
// -race in CI.
func TestScheduleCancelMidRun(t *testing.T) {
	_, nice := cancelNice(t, 13, 120)
	eight := stage.WithWorkers(context.Background(), 8)
	snap := leak.Before()
	ctx, cancel := context.WithCancel(eight)
	defer cancel()
	var calls atomic.Int64
	err := nice.Schedule(ctx, false, func(v int) error {
		if calls.Add(1) == 10 { // let the pool spin up, then pull the plug
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	snap.Check(t)
	// The pool is reusable after a cancelled run.
	if err := nice.Schedule(eight, false, func(int) error { return nil }); err != nil {
		t.Fatalf("pool poisoned after cancellation: %v", err)
	}
}

// TestScheduleDownCancelled pins cancellation of the top-down pass.
func TestScheduleDownCancelled(t *testing.T) {
	_, nice := cancelNice(t, 17, 80)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := nice.Schedule(ctx, true, func(int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestScheduleSerialCancelled pins the serial (below-threshold) path.
func TestScheduleSerialCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := graph.PartialKTree(8, 2, 0.3, rng)
	d, err := decompose.Graph(g, decompose.MinFill)
	if err != nil {
		t.Fatal(err)
	}
	nice, err := tree.NormalizeNice(d, tree.NiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	visited := 0
	err = nice.Schedule(ctx, false, func(int) error { visited++; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if visited != 0 {
		t.Fatalf("pre-cancelled run still computed %d nodes", visited)
	}
}
