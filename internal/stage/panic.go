package stage

import (
	"fmt"
	"runtime/debug"
)

// PanicError is a recovered panic converted into an error at a pipeline
// stage boundary, with the stack captured at recovery time. The cmd/*
// tools map it to a dedicated exit code and print only its one-line
// message; the stack is available programmatically via Stack.
type PanicError struct {
	// Value is the value the code panicked with.
	Value any
	// Stack is the goroutine stack captured inside the recover.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("recovered panic: %v", e.Value)
}

// NewPanicError captures the current stack for a value just recovered.
// Call it inside the deferred recover, before the stack unwinds further.
func NewPanicError(v any) *PanicError {
	return &PanicError{Value: v, Stack: debug.Stack()}
}

// RecoverTo converts an in-flight panic into a stage-tagged *PanicError
// assigned through errp, for use as
//
//	defer stage.RecoverTo(stage.Compile, &err)
//
// at a stage boundary. When the stage is tracked in a variable, use the
// pointer form RecoverAt so the innermost stage at panic time wins. An
// existing error is never overwritten unless a panic actually occurred.
func RecoverTo(s Stage, errp *error) {
	if r := recover(); r != nil {
		*errp = Wrap(s, NewPanicError(r))
	}
}

// RecoverAt is RecoverTo reading the stage from *sp at panic time, so a
// single deferred call can attribute the panic to whichever stage was
// running:
//
//	cur := stage.Decompose
//	defer stage.RecoverAt(&cur, &err)
//	...
//	cur = stage.Compile // advance as the pipeline progresses
func RecoverAt(sp *Stage, errp *error) {
	if r := recover(); r != nil {
		*errp = Wrap(*sp, NewPanicError(r))
	}
}
