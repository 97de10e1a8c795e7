package tree_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/decompose"
	"repro/internal/graph"
	"repro/internal/tree"
)

// cancelNice builds the nice decomposition of a seeded partial 3-tree
// on n vertices.
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
	return g, nice
}

// TestScheduleCancelMidRun cancels the context from inside a compute
// callback once the run is under way. Schedule polls ctx before every
// node, so it must stop with context.Canceled (unwrapped — evaluators
// add their own stage tag) before computing another node.
func TestScheduleCancelMidRun(t *testing.T) {
	_, nice := cancelNice(t, 13, 120)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	err := nice.Schedule(ctx, false, func(v int) error {
		if calls++; calls == 10 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 10 {
		t.Fatalf("computed %d nodes, want 10: the run went on after cancellation", calls)
	}
	// The decomposition is reusable after a cancelled run.
	if err := nice.Schedule(context.Background(), false, func(int) error { return nil }); err != nil {
		t.Fatalf("schedule poisoned after cancellation: %v", err)
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

// TestScheduleSerialCancelled pins a pre-cancelled bottom-up run on a
// small decomposition: no node is computed.
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
