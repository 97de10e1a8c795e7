package datalog

import (
	"context"
	"errors"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/stage"
)

// TestChaosGroundRuleFault injects at the grounder's per-rule point: the
// quasi-guarded evaluation must stop with a stage-tagged injected error,
// and a clean rerun over the same inputs must still produce the full
// answer (nothing cached across runs).
func TestChaosGroundRuleFault(t *testing.T) {
	defer faultinject.Reset()
	prog := MustParse(tdProgram)
	faultinject.FailAt("datalog.ground-rule", 1)
	_, err := EvalQuasiGuardedCtx(context.Background(), prog, chainTD(6), TDFuncDeps(1))
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if got := stage.Of(err); got != stage.Eval {
		t.Fatalf("tagged stage %q, want %q", got, stage.Eval)
	}

	faultinject.Reset()
	out, err := EvalQuasiGuardedCtx(context.Background(), prog, chainTD(6), TDFuncDeps(1))
	if err != nil {
		t.Fatalf("clean rerun: %v", err)
	}
	if !out.Has("accept") {
		t.Fatal("clean rerun lost the accept fact")
	}
}

// TestChaosStratumTaskFault injects at the semi-naive per-task point.
func TestChaosStratumTaskFault(t *testing.T) {
	defer faultinject.Reset()
	prog := MustParse(`
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
`)
	edb := NewDB()
	for i := 0; i < 8; i++ {
		edb.AddFact("edge", "v"+itoa(i), "v"+itoa(i+1))
	}
	faultinject.FailAt("datalog.stratum-task", 2)
	_, err := EvalCtx(context.Background(), prog, edb)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if got := stage.Of(err); got != stage.Eval {
		t.Fatalf("tagged stage %q, want %q", got, stage.Eval)
	}

	faultinject.Reset()
	out, err := EvalCtx(context.Background(), prog, edb)
	if err != nil {
		t.Fatalf("clean rerun: %v", err)
	}
	if got := len(out.Tuples("path")); got != 36 {
		t.Fatalf("clean rerun derived %d path facts, want 36", got)
	}
}

// TestChaosStratumPanicContained pins panic containment in rule
// evaluation: a panicking builtin comes back as a stage-tagged
// *stage.PanicError, not a process crash.
func TestChaosStratumPanicContained(t *testing.T) {
	prog := MustParse(`boom(X) :- edge(X, Y), chaos_explode(X).`)
	setBuiltin(t, "chaos_explode", func(args []string) (bool, error) { panic("builtin bug") })
	edb := NewDB()
	edb.AddFact("edge", "a", "b")
	_, err := EvalCtx(context.Background(), prog, edb)
	var pe *stage.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *stage.PanicError", err)
	}
	if got := stage.Of(err); got != stage.Eval {
		t.Fatalf("tagged stage %q, want %q", got, stage.Eval)
	}
}
