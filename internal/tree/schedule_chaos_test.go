package tree_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/stage"
	"repro/internal/testutil/leak"
)

// TestChaosScheduleNodeFault injects a fault at the per-node point of
// the parallel scheduler: the run must abort with the injected error,
// drain the pool, and leave the scheduler reusable.
func TestChaosScheduleNodeFault(t *testing.T) {
	defer faultinject.Reset()
	_, nice := cancelNice(t, 29, 120)
	ctx := stage.WithWorkers(context.Background(), 8)

	snap := leak.Before()
	faultinject.FailAt("dp.node", 5)
	err := nice.Schedule(ctx, false, func(int) error { return nil })
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	snap.Check(t)

	faultinject.Reset()
	if err := nice.Schedule(ctx, false, func(int) error { return nil }); err != nil {
		t.Fatalf("scheduler poisoned after injected fault: %v", err)
	}
}

// TestChaosScheduleChainFault injects at the per-chain scheduling
// point, exercising the abort protocol of the parallel scheduler
// itself.
func TestChaosScheduleChainFault(t *testing.T) {
	defer faultinject.Reset()
	_, nice := cancelNice(t, 31, 120)
	ctx := stage.WithWorkers(context.Background(), 8)

	snap := leak.Before()
	faultinject.FailAt("dp.chain", 2)
	err := nice.Schedule(ctx, false, func(int) error { return nil })
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	snap.Check(t)
}

// TestChaosSchedulePanicContained checks that a panic in a compute
// callback — evaluator and problem code is arbitrary user code running
// on a pool goroutine — comes back as a *stage.PanicError instead of
// crashing the process, with no goroutines left behind.
func TestChaosSchedulePanicContained(t *testing.T) {
	_, nice := cancelNice(t, 37, 120)
	// Serialize so exactly one deterministic call panics under -race.
	ctx := stage.WithWorkers(context.Background(), 1)

	snap := leak.Before()
	calls := 0
	err := nice.Schedule(ctx, false, func(int) error {
		if calls++; calls == 7 {
			panic("evaluator bug")
		}
		return nil
	})
	var pe *stage.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *stage.PanicError", err)
	}
	if pe.Value != "evaluator bug" || len(pe.Stack) == 0 {
		t.Fatalf("panic value %v, stack %d bytes", pe.Value, len(pe.Stack))
	}
	snap.Check(t)

	// The panic poisoned nothing: the same decomposition runs clean.
	if err := nice.Schedule(ctx, false, func(int) error { return nil }); err != nil {
		t.Fatalf("scheduler poisoned after panic: %v", err)
	}
}
