// Package game implements the game-theoretic MSO backend after
// Kneis–Langer–Rossmanith ("Courcelle's Theorem — A Game-Theoretic
// Approach"): instead of enumerating all MSO k-types up front and
// compiling them to datalog (the automaton backend, Theorems 4.4/4.5),
// it explores the model-checking game lazily over the nice tree
// decomposition.
//
// The central object is the behavior: a hash-consed game position
// recording, for a structure with a distinguished tuple and chosen
// sets, the atomic facts over the tuple plus — up to the remaining
// quantifier rank — the behaviors reachable by one point move (to a
// tuple element, or to some element outside the tuple) or one set move.
// Behaviors of subtrees are computed bottom-up along the decomposition:
// leaves and introduce nodes by brute force over the bag (at most w+1
// elements), branch and introduce nodes by synchronized composition,
// forget nodes by projecting the position out of the tuple. A sentence
// is decided on the root's behavior. A unary query, like Theorem 4.5,
// adds a top-down pass for each node's context (the structure outside
// its subtree) and decides each element once, on the composition of
// subtree and context at a node whose bag holds it. Because behaviors
// are interned, isomorphic subgames collapse; the memo table is keyed
// by (behavior, subformula, interpretation) at the evaluation layer and
// by the behavior's canonical serialization at the exploration layer.
// Set moves are explored only for a formula with a set quantifier.
//
// The backend never materializes the type space, so it is metered by
// Budget.MaxGamePositions (positions interned) rather than MaxStates —
// on formulas whose type count blows past MaxStates, the game backend
// routinely completes within a modest position budget. Fault injection
// points: "game.expand" (each behavior expansion) and "game.memo" (each
// new interned position). All errors are stage-tagged stage.Game except
// decomposition failures, which keep stage.Decompose.
package game

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/decompose"
	"repro/internal/mso"
	"repro/internal/stage"
	"repro/internal/structure"
	"repro/internal/tree"
)

// Name is the backend's registry identifier.
const Name = "game"

type backend struct{}

func init() { core.RegisterBackend(backend{}) }

// Backend returns the registered game backend.
func Backend() core.Backend { return backend{} }

func (backend) Name() string { return Name }

// CompileCtx fails: the game backend evaluates lazily and materializes
// no datalog program. Compile with the automaton backend instead.
func (backend) CompileCtx(ctx context.Context, sig *structure.Signature, phi *mso.Formula, xVar string, opts core.Options) (*core.Compiled, error) {
	return nil, fmt.Errorf("game: backend evaluates lazily and has no compiled datalog form (compile with the automaton backend)")
}

// RunCtx evaluates phi over st: decompose via the degradation ladder,
// normalize to nice form, then explore the model-checking game.
func (backend) RunCtx(ctx context.Context, st *structure.Structure, phi *mso.Formula, xVar string, opts core.Options) (res *core.Result, err error) {
	defer stage.RecoverTo(stage.Game, &err)
	trace := &stage.Trace{}
	start := time.Now()
	d, rung, err := decompose.StructureLadderCtx(ctx, st)
	if err != nil {
		return nil, stage.Wrap(stage.Decompose, err)
	}
	trace.RecordDetail(stage.Decompose, time.Since(start), d.Len(), false, rung)
	return run(ctx, st, d, phi, xVar, opts, trace)
}

// RunWithDecompositionCtx is RunCtx with a caller-provided (raw, valid)
// tree decomposition.
func (backend) RunWithDecompositionCtx(ctx context.Context, st *structure.Structure, d *tree.Decomposition, phi *mso.Formula, xVar string, opts core.Options) (res *core.Result, err error) {
	defer stage.RecoverTo(stage.Game, &err)
	return run(ctx, st, d, phi, xVar, opts, &stage.Trace{})
}

// EvalNiceCtx implements core.NiceBackend: evaluate directly on an
// already-normalized nice decomposition (the session layer's cached
// artifact), recording the game stat on the caller's trace.
func (backend) EvalNiceCtx(ctx context.Context, st *structure.Structure, nice *tree.Decomposition, phi *mso.Formula, xVar string, opts core.Options, trace *stage.Trace) (res *core.Result, err error) {
	defer stage.RecoverTo(stage.Game, &err)
	return evalNice(ctx, st, nice, phi, xVar, opts, trace)
}

func run(ctx context.Context, st *structure.Structure, d *tree.Decomposition, phi *mso.Formula, xVar string, opts core.Options, trace *stage.Trace) (*core.Result, error) {
	if err := d.Validate(st); err != nil {
		return nil, fmt.Errorf("game: invalid decomposition: %w", err)
	}
	start := time.Now()
	nice, err := tree.NormalizeNiceCtx(ctx, d, tree.NiceOptions{})
	if err != nil {
		return nil, stage.Wrap(stage.NormalizeNice, err)
	}
	trace.Record(stage.NormalizeNice, time.Since(start), nice.Len(), false)
	if opts.RequestedWidth != nil && *opts.RequestedWidth != nice.Width() {
		return nil, fmt.Errorf("game: decomposition width %d does not match requested width %d", nice.Width(), *opts.RequestedWidth)
	}
	return evalNice(ctx, st, nice, phi, xVar, opts, trace)
}

func evalNice(ctx context.Context, st *structure.Structure, nice *tree.Decomposition, phi *mso.Formula, xVar string, opts core.Options, trace *stage.Trace) (*core.Result, error) {
	free := xVar
	if opts.Decision {
		free = ""
	}
	if err := phi.CheckFree(free); err != nil {
		return nil, fmt.Errorf("game: %v", err)
	}
	q := phi.QuantifierDepth()
	if opts.QuantifierDepth > q {
		q = opts.QuantifierDepth
	}
	e := newEvaluator(ctx, st, nice, q)
	e.indexFormula(phi)
	start := time.Now()
	res := &core.Result{Width: nice.Width(), TDNodes: nice.Len(), Trace: trace}
	if err := e.upPass(); err != nil {
		return nil, stage.Wrap(stage.Game, err)
	}
	var err error
	if opts.Decision {
		res.Holds, err = e.eval(e.up[nice.Root].id, phi, map[string]int{})
	} else {
		res.Selected, err = e.selectPass(phi, xVar)
	}
	if err != nil {
		return nil, stage.Wrap(stage.Game, err)
	}
	trace.RecordDetail(stage.Game, time.Since(start), len(e.nodes), false,
		fmt.Sprintf("positions=%d", len(e.nodes)))
	return res, nil
}
