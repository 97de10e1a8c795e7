package tree_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/stage"
)

// TestChaosScheduleNodeFault injects a fault at the scheduler's
// per-node point: the run must abort with the injected error and leave
// the scheduler reusable.
func TestChaosScheduleNodeFault(t *testing.T) {
	defer faultinject.Reset()
	_, nice := cancelNice(t, 29, 120)
	ctx := context.Background()

	faultinject.FailAt("dp.node", 5)
	calls := 0
	err := nice.Schedule(ctx, false, func(int) error { calls++; return nil })
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if calls != 4 {
		t.Fatalf("computed %d nodes before the fault at the 5th, want 4", calls)
	}

	faultinject.Reset()
	if err := nice.Schedule(ctx, false, func(int) error { return nil }); err != nil {
		t.Fatalf("scheduler poisoned after injected fault: %v", err)
	}
}

// TestChaosSchedulePanicContained checks that a panic in a compute
// callback — evaluator and problem code is arbitrary user code — comes
// back as a *stage.PanicError instead of crashing the process.
func TestChaosSchedulePanicContained(t *testing.T) {
	_, nice := cancelNice(t, 37, 120)
	ctx := context.Background()

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

	// The panic poisoned nothing: the same decomposition runs clean.
	if err := nice.Schedule(ctx, false, func(int) error { return nil }); err != nil {
		t.Fatalf("scheduler poisoned after panic: %v", err)
	}
}
