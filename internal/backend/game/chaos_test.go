package game_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/mso"
	"repro/internal/stage"
	"repro/internal/testutil/leak"
)

// TestBudgetGamePositionsExceeded pins the MaxGamePositions contract:
// a cap below what the evaluation needs surfaces as a stage-tagged
// BudgetError on the game-positions dimension, and the tally stops at
// limit+1 instead of recording the full would-be exploration.
func TestBudgetGamePositionsExceeded(t *testing.T) {
	st := randomStructure(rand.New(rand.NewSource(3)), 6)
	phi := mso.MustParse("exists y (e(x,y) & ~c(y))")

	b := &stage.Budget{MaxGamePositions: 5}
	ctx := stage.WithBudget(context.Background(), b)
	_, err := core.RunCtx(ctx, st, phi, "x", core.Options{Backend: core.GameBackend})
	if !errors.Is(err, stage.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want budget exceeded", err)
	}
	var be *stage.BudgetError
	if !errors.As(err, &be) || be.Dimension != "game-positions" {
		t.Fatalf("err = %v, want game-positions BudgetError", err)
	}
	if got := stage.Of(err); got != stage.Game {
		t.Fatalf("tagged stage %q, want %q", got, stage.Game)
	}
	if used := b.GamePositionsUsed(); used != be.Limit+1 {
		t.Fatalf("tally = %d after violation, want limit+1 = %d", used, be.Limit+1)
	}
}

// TestBudgetGameSufficientIsInvisible pins that a generous position
// budget changes nothing and the tally records real consumption.
func TestBudgetGameSufficientIsInvisible(t *testing.T) {
	st := randomStructure(rand.New(rand.NewSource(5)), 6)
	phi := mso.MustParse("c(x)")

	plain, err := core.RunCtx(context.Background(), st, phi, "x", core.Options{Backend: core.GameBackend})
	if err != nil {
		t.Fatal(err)
	}
	b := &stage.Budget{MaxGamePositions: 1 << 20}
	res, err := core.RunCtx(stage.WithBudget(context.Background(), b), st, phi, "x", core.Options{Backend: core.GameBackend})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Selected.Equal(res.Selected) {
		t.Fatal("budgeted run changed the answer")
	}
	if used := b.GamePositionsUsed(); used <= 0 {
		t.Fatalf("tally = %d, want > 0", used)
	}
}

// TestGameCancellation pins that a canceled context aborts the
// exploration with a stage-tagged cancellation error.
func TestGameCancellation(t *testing.T) {
	st := randomStructure(rand.New(rand.NewSource(9)), 7)
	phi := mso.MustParse("exists Y (x in Y & forall z (z in Y -> c(z)))")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := core.RunCtx(ctx, st, phi, "x", core.Options{Backend: core.GameBackend})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := stage.Of(err); got == "" {
		t.Fatalf("cancellation lost its stage tag: %v", err)
	}
}

// TestChaosGameFaultPoints injects a failure at each game fault point
// and asserts the chaos suite's guarantees: the fault surfaces as a
// stage-tagged error (stage.Game), no goroutines leak, and a retry
// after disarming matches an uninjected cold run — a failed exploration
// can never poison later evaluations.
func TestChaosGameFaultPoints(t *testing.T) {
	defer faultinject.Reset()
	st := randomStructure(rand.New(rand.NewSource(17)), 6)
	phi := mso.MustParse("exists y (e(x,y) & ~c(y))")
	ctx := context.Background()

	faultinject.Reset()
	want, err := core.RunCtx(ctx, st, phi, "x", core.Options{Backend: core.GameBackend})
	if err != nil {
		t.Fatalf("uninjected run: %v", err)
	}

	for _, point := range []string{"game.expand", "game.memo"} {
		t.Run(point, func(t *testing.T) {
			snap := leak.Before()
			faultinject.Reset()
			faultinject.FailAt(point, 1)
			_, err := core.RunCtx(ctx, st, phi, "x", core.Options{Backend: core.GameBackend})
			if err == nil {
				t.Fatalf("injected fault at %s did not surface", point)
			}
			if got := stage.Of(err); got != stage.Game {
				t.Fatalf("fault at %s tagged stage %q, want %q", point, got, stage.Game)
			}
			faultinject.Reset()
			res, err := core.RunCtx(ctx, st, phi, "x", core.Options{Backend: core.GameBackend})
			if err != nil {
				t.Fatalf("retry after %s fault: %v", point, err)
			}
			if !res.Selected.Equal(want.Selected) {
				t.Fatalf("retry after %s fault diverged from the cold answer", point)
			}
			snap.Check(t)
		})
	}
}

// TestGameMemoOncePerPosition pins that the game.memo fault point fires
// once per new position and at no lookup that finds one: on the seed-40
// tree of TestGamePositionsPinned, whose cold-dp query interns 806
// positions, failing the 806th check fails the evaluation, and failing
// only the 807th leaves it to finish with 806 positions and the
// uninjected answer.
func TestGameMemoOncePerPosition(t *testing.T) {
	defer faultinject.Reset()
	st := coloredKTree(40, 2, rand.New(rand.NewSource(40)))
	phi := mso.MustParse(coldDPFormula)
	run := func() (*core.Result, int64, error) {
		b := &stage.Budget{MaxGamePositions: 1 << 30}
		opts := core.Options{Backend: core.GameBackend}
		res, err := core.RunCtx(stage.WithBudget(context.Background(), b), st, phi, "x", opts)
		return res, b.GamePositionsUsed(), err
	}

	faultinject.Reset()
	want, positions, err := run()
	if err != nil {
		t.Fatalf("uninjected run: %v", err)
	}
	if positions != 806 {
		t.Fatalf("uninjected run interned %d positions, want 806", positions)
	}

	faultinject.Reset()
	faultinject.FailAt("game.memo", 806)
	if _, _, err := run(); err == nil {
		t.Fatal("a fault at the 806th game.memo check did not surface")
	} else if got := stage.Of(err); got != stage.Game {
		t.Fatalf("fault tagged stage %q, want %q", got, stage.Game)
	}

	faultinject.Reset()
	faultinject.FailAt("game.memo", 807)
	res, positions, err := run()
	if err != nil {
		t.Fatalf("a fault at the 807th game.memo check surfaced: %v", err)
	}
	if positions != 806 {
		t.Fatalf("%d positions with the 807th check armed, want 806", positions)
	}
	if !res.Selected.Equal(want.Selected) {
		t.Fatal("answer with the 807th check armed diverged from the uninjected answer")
	}
}
