package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/mso"
	"repro/internal/stage"
	"repro/internal/structure"
)

// GamePoint is one head-to-head measurement: the same (structure,
// formula) evaluated by the automaton backend and the game backend, with
// answers compared element-for-element.
type GamePoint struct {
	Structure   string `json:"structure"`
	Formula     string `json:"formula"`
	Var         string `json:"var,omitempty"`
	AutomatonNS int64  `json:"automaton_ns"`
	GameNS      int64  `json:"game_ns"`
	Agreed      bool   `json:"agreed"`
}

// GameResult reports the backend head-to-head plus the MaxStates-escape
// demonstration: a point where the automaton backend dies on its states
// budget while the game backend completes — correctly, per the naive
// model checker — within a position budget.
type GameResult struct {
	Elems       int         `json:"elems"`
	Points      []GamePoint `json:"points"`
	Comparisons int         `json:"comparisons"`
	Agreements  int         `json:"agreements"`

	EscapeFormula        string `json:"escape_formula"`
	EscapeMaxStates      int64  `json:"escape_max_states"`
	AutomatonBudgetError bool   `json:"automaton_budget_error"`
	GameCompleted        bool   `json:"game_completed"`
	GameCorrect          bool   `json:"game_correct"`
	GamePositions        int64  `json:"game_positions"`
	GameNS               int64  `json:"escape_game_ns"`
	EscapeDemonstrated   bool   `json:"escape_demonstrated"`
}

// gameComparePath queries run on the colored path ({e/2, c/1}, width 1):
// quantifier-free, where the automaton compilation stays cheap on a
// binary signature.
var gameComparePath = []string{
	"c(x)",
	"~c(x)",
	"c(x) | ~c(x)",
	"c(x) & ~c(x)",
}

// gameCompareColored queries run on the colors-only structure (width 0),
// where the automaton affords quantifier rank 1.
var gameCompareColored = []string{
	"c(x) & exists y ~c(y)",
	"c(x) | forall y c(y)",
	"~c(x) & exists y c(y)",
}

// escapeFormula is the MaxStates-wall point: a rank-2 sentence over the
// binary signature. Its k-type space at width 1 blows through a small
// MaxStates before compilation finishes; the game backend explores only
// the positions the colored path actually realizes.
const escapeFormula = "exists x exists y (e(x,y) & c(x))"

// escapeMaxStates is the automaton's states budget at the escape point —
// generous for the feasible points above, hopeless for escapeFormula.
const escapeMaxStates = 200

var sigColoredPath = structure.MustSignature(
	structure.Predicate{Name: "e", Arity: 2},
	structure.Predicate{Name: "c", Arity: 1},
)

// coloredPath is an n-element path over e/2 (treewidth 1), with c/1 on
// every other element: the regime where the quantifier-free automaton
// compilation is cheap and evaluation dominates.
func coloredPath(n int) *structure.Structure {
	st := structure.New(sigColoredPath)
	for i := 0; i < n; i++ {
		st.AddElem(fmt.Sprintf("v%d", i))
	}
	for i := 0; i+1 < n; i++ {
		st.MustAddTuple("e", i, i+1)
	}
	for i := 0; i < n; i += 2 {
		st.MustAddTuple("c", i)
	}
	return st
}

// GameCompare runs the automaton/game head-to-head on n-element
// workloads: agreement on every feasible point, then the escape point
// under a deliberately tight MaxStates. It errors on any disagreement or
// if the escape is not demonstrated, so receipts can assert
// agreements == comparisons and escape_demonstrated.
func GameCompare(ctx context.Context, n int) (GameResult, error) {
	res := GameResult{Elems: n, EscapeFormula: escapeFormula, EscapeMaxStates: escapeMaxStates}
	if n < 2 {
		return res, fmt.Errorf("bench: game compare needs ≥2 elements, got %d", n)
	}
	path := coloredPath(n)
	colored := structure.New(structure.MustSignature(structure.Predicate{Name: "c", Arity: 1}))
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < n; i++ {
		id := colored.AddElem(fmt.Sprintf("v%d", i))
		if rng.Intn(2) == 0 {
			colored.MustAddTuple("c", id)
		}
	}
	type workload struct {
		name    string
		st      *structure.Structure
		queries []string
	}
	for _, w := range []workload{
		{"colored-path", path, gameComparePath},
		{"colors-only", colored, gameCompareColored},
	} {
		for _, q := range w.queries {
			phi, err := mso.Parse(q)
			if err != nil {
				return res, err
			}
			pt := GamePoint{Structure: w.name, Formula: q, Var: "x"}
			t0 := time.Now()
			ares, err := core.RunCtx(ctx, w.st, phi, "x", core.Options{})
			if err != nil {
				return res, fmt.Errorf("bench: automaton %s %q: %w", w.name, q, err)
			}
			pt.AutomatonNS = time.Since(t0).Nanoseconds()
			t0 = time.Now()
			gres, err := core.RunCtx(ctx, w.st, phi, "x", core.Options{Backend: core.GameBackend})
			if err != nil {
				return res, fmt.Errorf("bench: game %s %q: %w", w.name, q, err)
			}
			pt.GameNS = time.Since(t0).Nanoseconds()
			pt.Agreed = ares.Selected.Equal(gres.Selected)
			res.Points = append(res.Points, pt)
			res.Comparisons++
			if pt.Agreed {
				res.Agreements++
			} else {
				return res, fmt.Errorf("bench: %s %q: backends disagree", w.name, q)
			}
		}
	}

	// The escape point: automaton under a tight states budget must die
	// with a states BudgetError; the game backend, metered by positions
	// instead, must complete and agree with the naive model checker.
	phi := mso.MustParse(escapeFormula)
	actx := stage.WithBudget(ctx, &stage.Budget{MaxStates: escapeMaxStates})
	_, aerr := core.RunCtx(actx, path, phi, "", core.Options{Decision: true})
	var be *stage.BudgetError
	res.AutomatonBudgetError = errors.Is(aerr, stage.ErrBudgetExceeded) && errors.As(aerr, &be) && be.Dimension == "states"
	if aerr == nil {
		return res, fmt.Errorf("bench: automaton completed the escape point under MaxStates=%d; raise the formula's rank", escapeMaxStates)
	}
	if !res.AutomatonBudgetError {
		return res, fmt.Errorf("bench: automaton failed the escape point with %v, want a states budget violation", aerr)
	}
	gb := &stage.Budget{MaxGamePositions: 1 << 20}
	t0 := time.Now()
	gres, gerr := core.RunCtx(stage.WithBudget(ctx, gb), path, phi, "", core.Options{Decision: true, Backend: core.GameBackend})
	res.GameNS = time.Since(t0).Nanoseconds()
	if gerr != nil {
		return res, fmt.Errorf("bench: game backend failed the escape point: %w", gerr)
	}
	res.GameCompleted = true
	res.GamePositions = gb.GamePositionsUsed()
	want, err := mso.SentenceCtx(ctx, path, phi, nil)
	if err != nil {
		return res, fmt.Errorf("bench: naive oracle: %w", err)
	}
	res.GameCorrect = gres.Holds == want
	if !res.GameCorrect {
		return res, fmt.Errorf("bench: game backend answered %v at the escape point, naive says %v", gres.Holds, want)
	}
	res.EscapeDemonstrated = res.AutomatonBudgetError && res.GameCompleted && res.GameCorrect
	return res, nil
}
