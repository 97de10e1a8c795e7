package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/decompose"
	"repro/internal/faultinject"
	"repro/internal/mso"
	"repro/internal/stage"
)

// stagesOf lists the stages a trace recorded, in order: the route a run
// took.
func stagesOf(tr *stage.Trace) []stage.Stage {
	var out []stage.Stage
	for _, s := range tr.Stats {
		out = append(out, s.Stage)
	}
	return out
}

// TestBackendSwitch runs each backend name through the three entry
// points that take one. "" and "automaton" take the automaton route,
// "game" the game route, which CompileCtx refuses, since the game has no
// compiled form. Any other name, "Game" included, is an error naming
// both backends.
func TestBackendSwitch(t *testing.T) {
	ctx := context.Background()
	st := randColored(rand.New(rand.NewSource(3)), 6)
	d, err := decompose.Structure(st, decompose.MinFill)
	if err != nil {
		t.Fatal(err)
	}
	phi := mso.MustParse("c(x)")
	want, err := mso.QueryCtx(ctx, st, phi, "x", nil)
	if err != nil {
		t.Fatal(err)
	}
	automaton := []stage.Stage{stage.NormalizeTuple, stage.BuildTD, stage.Compile, stage.Eval}
	game := []stage.Stage{stage.NormalizeNice, stage.Game}
	for _, tc := range []struct {
		name  string
		want  string // "" for an unknown name
		route []stage.Stage
	}{
		{"", DefaultBackend, automaton},
		{"automaton", DefaultBackend, automaton},
		{"game", GameBackend, game},
		{"quantum", "", nil},
		{"Game", "", nil},
	} {
		opts := Options{Backend: tc.name}
		got, checkErr := CheckBackend(tc.name)
		run, runErr := RunCtx(ctx, st, phi, "x", opts)
		withD, withDErr := RunWithDecompositionCtx(ctx, st, d, phi, "x", opts)
		opts.Width = 1
		_, compileErr := CompileCtx(ctx, sigColor, phi, "x", opts)
		if tc.want == "" {
			for entry, err := range map[string]error{"CheckBackend": checkErr, "RunCtx": runErr, "RunWithDecompositionCtx": withDErr, "CompileCtx": compileErr} {
				if err == nil || !strings.Contains(err.Error(), `"`+tc.name+`"`) ||
					!strings.Contains(err.Error(), DefaultBackend) || !strings.Contains(err.Error(), GameBackend) {
					t.Errorf("%s(%q): err = %v, want an unknown-backend error naming both backends", entry, tc.name, err)
				}
			}
			continue
		}
		if checkErr != nil || got != tc.want {
			t.Fatalf("CheckBackend(%q) = %q, %v; want %q", tc.name, got, checkErr, tc.want)
		}
		if runErr != nil || withDErr != nil {
			t.Fatalf("backend %q: RunCtx err = %v, RunWithDecompositionCtx err = %v", tc.name, runErr, withDErr)
		}
		if r := stagesOf(run.Trace); !reflect.DeepEqual(r, append([]stage.Stage{stage.Decompose}, tc.route...)) {
			t.Errorf("backend %q: RunCtx took %v", tc.name, r)
		}
		if r := stagesOf(withD.Trace); !reflect.DeepEqual(r, tc.route) {
			t.Errorf("backend %q: RunWithDecompositionCtx took %v", tc.name, r)
		}
		if !run.Selected.Equal(want) || !withD.Selected.Equal(want) {
			t.Errorf("backend %q: selected %v and %v, want %v", tc.name, run.Selected, withD.Selected, want)
		}
		if refused := tc.want == GameBackend; (compileErr != nil) != refused {
			t.Errorf("backend %q: CompileCtx err = %v, want refused = %v", tc.name, compileErr, refused)
		}
	}
}

// TestChaosGameColdRun sweeps the cold RunCtx fault points with the game
// backend. Both backends share the decomposition, so core.decompose
// fires and is tagged decompose. The game route builds no tuple form or
// τ_td and compiles nothing, so the automaton route's points are never
// reached: armed to fail every call, they leave the answer unchanged.
func TestChaosGameColdRun(t *testing.T) {
	defer faultinject.Reset()
	ctx := context.Background()
	st := randColored(rand.New(rand.NewSource(31)), 6)
	phi := mso.MustParse("c(x)")
	opts := Options{Backend: GameBackend}

	faultinject.Reset()
	want, err := RunCtx(ctx, st, phi, "x", opts)
	if err != nil {
		t.Fatalf("uninjected run: %v", err)
	}

	faultinject.FailAt("core.decompose", 1)
	_, err = RunCtx(ctx, st, phi, "x", opts)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("core.decompose: err = %v, want injected fault", err)
	}
	if got := stage.Of(err); got != stage.Decompose {
		t.Fatalf("core.decompose: tagged stage %q, want %q", got, stage.Decompose)
	}

	faultinject.Reset()
	automatonPoints := []string{"core.normalize-tuple", "core.build-td", "core.compile", "core.eval"}
	for _, point := range automatonPoints {
		faultinject.FailAlways(point)
	}
	res, err := RunCtx(ctx, st, phi, "x", opts)
	if err != nil {
		t.Fatalf("game run with the automaton route's points armed: %v", err)
	}
	if !res.Selected.Equal(want.Selected) {
		t.Fatalf("selected %v, want %v", res.Selected, want.Selected)
	}
	seen := faultinject.PointsSeen()
	for _, point := range automatonPoints {
		if slices.Contains(seen, point) {
			t.Errorf("a cold game run reached %s", point)
		}
	}
	if !slices.Contains(seen, "core.decompose") {
		t.Errorf("a cold game run skipped core.decompose (points seen: %v)", seen)
	}
}
