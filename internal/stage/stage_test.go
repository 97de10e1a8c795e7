package stage

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestWrapNil(t *testing.T) {
	if err := Wrap(Decompose, nil); err != nil {
		t.Fatalf("Wrap(nil) = %v, want nil", err)
	}
}

func TestWrapKeepsInnermostStage(t *testing.T) {
	inner := Wrap(Eval, context.Canceled)
	outer := Wrap(Compile, inner)
	if outer != inner {
		t.Fatalf("outer wrap replaced inner tag: %v", outer)
	}
	if got := Of(outer); got != Eval {
		t.Fatalf("Of = %q, want %q", got, Eval)
	}
	if !errors.Is(outer, context.Canceled) {
		t.Fatal("stage error does not unwrap to context.Canceled")
	}
	var se *Error
	if !errors.As(outer, &se) || se.Stage != Eval {
		t.Fatalf("errors.As gave stage %q", se.Stage)
	}
}

func TestOfThroughFmtWrap(t *testing.T) {
	err := fmt.Errorf("outer: %w", Wrap(Solver, context.DeadlineExceeded))
	if got := Of(err); got != Solver {
		t.Fatalf("Of through %%w = %q, want %q", got, Solver)
	}
	if Of(errors.New("plain")) != "" {
		t.Fatal("Of(plain) should be empty")
	}
}

func TestTraceRecordAndString(t *testing.T) {
	var tr Trace
	tr.Record(Decompose, 2*time.Millisecond, 17, false)
	tr.Record(Compile, time.Millisecond, 240, true)
	if tr.Total() != 3*time.Millisecond {
		t.Fatalf("Total = %v", tr.Total())
	}
	s := tr.String()
	if !strings.Contains(s, "decompose") || !strings.Contains(s, "(cached)") {
		t.Fatalf("unexpected trace string:\n%s", s)
	}
	var nilTrace *Trace
	nilTrace.Record(Eval, time.Second, 1, false) // must not panic
	if nilTrace.Total() != 0 || nilTrace.String() == "" {
		t.Fatal("nil trace accessors misbehaved")
	}
}

func TestTraceTime(t *testing.T) {
	var tr Trace
	err := tr.Time(BuildTD, func() int { return 5 }, func() error { return nil })
	if err != nil {
		t.Fatalf("Time = %v", err)
	}
	if len(tr.Stats) != 1 || tr.Stats[0].Stage != BuildTD || tr.Stats[0].Size != 5 {
		t.Fatalf("unexpected stats %+v", tr.Stats)
	}
	sentinel := errors.New("boom")
	err = tr.Time(Eval, nil, func() error { return sentinel })
	if Of(err) != Eval || !errors.Is(err, sentinel) {
		t.Fatalf("Time error = %v", err)
	}
}
