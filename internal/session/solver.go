package session

// Session memoization for the generic semiring solver: SolveDecide,
// SolveCount and SolveOptimize evaluate a solver.Problem over the
// session's nice decomposition and cache the outcome per (structure
// fingerprint, problem name, mode). Evaluation is deterministic, so a
// repeat of the same problem and mode on an unchanged structure is a
// pure cache hit; the cache is invalidated by the same fingerprint
// mechanism as the pipeline artifacts. Concurrent Solve* calls for the
// same (problem, mode) share one in-flight solve, and calls answerable
// from the cache complete without waiting on in-flight work. These are
// package functions rather than methods because Go methods cannot
// introduce type parameters.

import (
	"context"
	"math/big"

	"repro/internal/faultinject"
	"repro/internal/solver"
	"repro/internal/stage"
	"repro/internal/tree"
)

// solverKey identifies a memoized solver outcome: the problem and
// mode, solved over the nice form of the structure with fingerprint fp.
type solverKey struct {
	fp      uint64
	problem string
	mode    solver.Mode
}

// solveShared answers (problem, mode) from the solver cache, or runs
// solve on the session's nice form under per-key single-flight and
// files the outcome under the nice form's fingerprint.
func (s *Session) solveShared(ctx context.Context, problem string, mode solver.Mode, solve func(*tree.Decomposition) (any, error)) (any, error) {
	nice, fp, err := s.niceForm(ctx)
	if err != nil {
		return nil, err
	}
	v, _, err := s.solved.Do(ctx, solverKey{fp: fp, problem: problem, mode: mode}, func() (any, error) {
		return runSolve(nice, solve)
	})
	return v, waited(stage.Solver, err)
}

// runSolve runs solve, recovering a panic into a stage-tagged error.
func runSolve(nice *tree.Decomposition, solve func(*tree.Decomposition) (any, error)) (v any, err error) {
	defer stage.RecoverTo(stage.Solver, &err)
	if err := faultinject.Check("session.solver"); err != nil {
		return nil, stage.Wrap(stage.Solver, err)
	}
	return solve(nice)
}

// SolveDecide reports whether p has a solution over the session's nice
// decomposition, memoized per (structure fingerprint, problem, mode).
func SolveDecide[S comparable](ctx context.Context, s *Session, p solver.Problem[S]) (bool, error) {
	v, err := s.solveShared(ctx, p.Name(), solver.ModeDecide, func(nice *tree.Decomposition) (any, error) {
		ok, err := solver.Decide(ctx, nice, p)
		if err != nil {
			return nil, err
		}
		return ok, nil
	})
	if err != nil {
		return false, err
	}
	b, _ := v.(bool)
	return b, nil
}

// SolveCount returns p's exact solution count over the session's nice
// decomposition, memoized per (structure fingerprint, problem, mode).
// The returned big.Int is caller-owned.
func SolveCount[S comparable](ctx context.Context, s *Session, p solver.Problem[S]) (*big.Int, error) {
	v, err := s.solveShared(ctx, p.Name(), solver.ModeCount, func(nice *tree.Decomposition) (any, error) {
		n, err := solver.Count(ctx, nice, p)
		if err != nil {
			return nil, err
		}
		return n, nil
	})
	if err != nil {
		return nil, err
	}
	n, ok := v.(*big.Int)
	if !ok {
		return new(big.Int), nil
	}
	return new(big.Int).Set(n), nil
}

// SolveOptimize returns p's minimum cost over the session's nice
// decomposition (nil if infeasible), memoized per (structure
// fingerprint, problem, mode). The cache holds the solver.Optimum
// alone, not the tables behind it: a caller that wants an argmin
// witness runs solver.Optimize on the nice form itself. The returned
// Optimum is caller-owned.
func SolveOptimize[S comparable](ctx context.Context, s *Session, p solver.Problem[S]) (*solver.Optimum, error) {
	v, err := s.solveShared(ctx, p.Name(), solver.ModeOptimize, func(nice *tree.Decomposition) (any, error) {
		opt, err := solver.Minimum(ctx, nice, p)
		if err != nil {
			return nil, err
		}
		return opt, nil
	})
	if err != nil {
		return nil, err
	}
	opt, _ := v.(*solver.Optimum)
	if opt == nil {
		return nil, nil
	}
	cp := *opt
	return &cp, nil
}
