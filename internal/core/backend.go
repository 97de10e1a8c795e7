package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/backend/game"
	"repro/internal/mso"
	"repro/internal/stage"
	"repro/internal/structure"
	"repro/internal/tree"
)

// The two evaluation backends, by the names Options.Backend, the
// -backend flags and the X-Backend header select them with.
const (
	// DefaultBackend, also selected by the empty name, is the paper's
	// Theorem 4.4/4.5 pipeline: k-types compiled to a quasi-guarded
	// monadic datalog program over τ_td, grounded and evaluated.
	DefaultBackend = "automaton"
	// GameBackend explores the model-checking game lazily over the nice
	// decomposition (internal/backend/game, after Kneis–Langer–
	// Rossmanith). It never materializes the type space, so it escapes
	// the MaxStates wall, and it has no compiled form.
	GameBackend = "game"
)

// CheckBackend returns name normalized ("" reads as DefaultBackend), or
// an error listing both backends when name is neither.
func CheckBackend(name string) (string, error) {
	switch name {
	case "", DefaultBackend:
		return DefaultBackend, nil
	case GameBackend:
		return GameBackend, nil
	}
	return "", fmt.Errorf("core: unknown backend %q (have %s, %s)", name, DefaultBackend, GameBackend)
}

// BackendName is Options.Backend normalized: "" reads as
// DefaultBackend. Cache keys and stats maps use it so the default and
// its explicit spelling share entries.
func (o Options) BackendName() string {
	if o.Backend == "" {
		return DefaultBackend
	}
	return o.Backend
}

// runGame is the game backend's route through runWithDecomposition once
// d is validated: normalize to nice form, check the width, explore.
func runGame(ctx context.Context, st *structure.Structure, d *tree.Decomposition, phi *mso.Formula, xVar string, opts Options, trace *stage.Trace) (*Result, error) {
	start := time.Now()
	nice, err := tree.NormalizeNiceCtx(ctx, d, tree.NiceOptions{})
	if err != nil {
		return nil, stage.Wrap(stage.NormalizeNice, err)
	}
	trace.Record(stage.NormalizeNice, time.Since(start), nice.Len(), false)
	if opts.RequestedWidth != nil && *opts.RequestedWidth != nice.Width() {
		return nil, fmt.Errorf("core: decomposition width %d does not match requested width %d", nice.Width(), *opts.RequestedWidth)
	}
	return EvalGame(ctx, st, nice, phi, xVar, opts, trace)
}

// EvalGame answers phi over st by the game backend on nice, an already
// normalized nice decomposition of st (tree.NormalizeNice): the cold
// route of Run and the session layer's cached nice form both end here.
// Of opts it reads Decision and QuantifierDepth. The game stat is
// recorded on trace, which the Result carries.
func EvalGame(ctx context.Context, st *structure.Structure, nice *tree.Decomposition, phi *mso.Formula, xVar string, opts Options, trace *stage.Trace) (*Result, error) {
	selected, holds, err := game.Eval(ctx, st, nice, phi, xVar, opts.Decision, opts.QuantifierDepth, trace)
	if err != nil {
		return nil, err
	}
	return &Result{Selected: selected, Holds: holds, Width: nice.Width(), TDNodes: nice.Len(), Trace: trace}, nil
}
