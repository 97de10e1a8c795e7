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
// are interned, isomorphic subgames collapse. A candidate's atomic
// layer is interned first, and the position is then looked up by its
// rank, atomic id and child ids before anything is allocated for it;
// the memo table is keyed by (behavior, subformula, interned binding)
// at the evaluation layer. Set moves are explored only for a formula
// with a set quantifier.
//
// The backend never materializes the type space, so it is metered by
// Budget.MaxGamePositions (positions interned) rather than MaxStates —
// on formulas whose type count blows past MaxStates, the game backend
// routinely completes within a modest position budget. Fault injection
// points: "game.expand" (each behavior expansion) and "game.memo" (each
// new interned position), and errors from the exploration are
// stage-tagged stage.Game.
//
// The package sits below internal/core, which selects it as the "game"
// backend (core.GameBackend): core decomposes, normalizes to nice form
// and checks the width, then calls Eval.
package game

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bitset"
	"repro/internal/mso"
	"repro/internal/stage"
	"repro/internal/structure"
	"repro/internal/tree"
)

// Eval explores the model-checking game of phi over st on the nice
// decomposition nice. A unary query (free element variable xVar) returns
// the selected elements; with decision set, phi must be a sentence and
// Eval returns its truth value and a nil set. Types are explored to rank
// max(depth, phi's quantifier depth). The game stat, with the positions
// interned, is recorded on trace.
func Eval(ctx context.Context, st *structure.Structure, nice *tree.Decomposition, phi *mso.Formula, xVar string, decision bool, depth int, trace *stage.Trace) (selected *bitset.Set, holds bool, err error) {
	defer stage.RecoverTo(stage.Game, &err)
	free := xVar
	if decision {
		free = ""
	}
	if err := phi.CheckFree(free); err != nil {
		return nil, false, fmt.Errorf("game: %v", err)
	}
	e := newEvaluator(ctx, st, nice, max(depth, phi.QuantifierDepth()))
	e.indexFormula(phi)
	start := time.Now()
	if err := e.upPass(); err != nil {
		return nil, false, stage.Wrap(stage.Game, err)
	}
	if decision {
		holds, err = e.eval(e.up[nice.Root].id, phi, e.unbound())
	} else {
		selected, err = e.selectPass(phi, xVar)
	}
	if err != nil {
		return nil, false, stage.Wrap(stage.Game, err)
	}
	trace.RecordDetail(stage.Game, time.Since(start), len(e.nodes), false,
		fmt.Sprintf("positions=%d", len(e.nodes)))
	return selected, holds, nil
}
