package threecol

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/solver"
)

// TestCrossModeColoring pins the evaluation modes of the coloring
// algebra against each other on random partial k-trees: decision ==
// (count > 0) == (optimization finds a feasible witness), Minimum
// agrees with Optimize, and the witness is a proper coloring.
func TestCrossModeColoring(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ctx := context.Background()
	for trial := 0; trial < 50; trial++ {
		n := 4 + rng.Intn(12)
		k := 1 + rng.Intn(4)
		g := graph.PartialKTree(n, k, 0.4, rng)
		nice, err := niceFor(g)
		if err != nil {
			t.Fatal(err)
		}
		cp := newColorProblem(g, 3)

		dec, err := solver.Decide(ctx, nice, cp)
		if err != nil {
			t.Fatal(err)
		}
		cnt, err := solver.Count(ctx, nice, cp)
		if err != nil {
			t.Fatal(err)
		}
		der, err := solver.Optimize(ctx, nice, cp)
		if err != nil {
			t.Fatal(err)
		}
		minimum, err := solver.Minimum(ctx, nice, cp)
		if err != nil {
			t.Fatal(err)
		}
		if (minimum == nil) != (der == nil) || (minimum != nil && minimum.Value != der.Value) {
			t.Fatalf("trial %d: Minimum = %+v, Optimize = %+v", trial, minimum, der)
		}
		if dec != (cnt.Sign() > 0) || dec != (der != nil) {
			t.Fatalf("trial %d: modes disagree: decide=%v count=%v optimize-feasible=%v",
				trial, dec, cnt, der != nil)
		}
		if dec != BruteForce(g) {
			t.Fatalf("trial %d: decide=%v, brute force=%v", trial, dec, BruteForce(g))
		}

		colors, ok, err := KColoring(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		if ok != dec {
			t.Fatalf("trial %d: KColoring feasible=%v, decide=%v", trial, ok, dec)
		}
		if ok {
			for _, e := range g.Edges() {
				if colors[e[0]] == colors[e[1]] {
					t.Fatalf("trial %d: witness not a proper coloring at edge %v", trial, e)
				}
			}
		}
	}
}

// TestKColorEquivalentToThreeCol is the regression pin for the handler
// drift the unification fixed: at q=3 the generalized k-coloring path
// and the dedicated 3-colorability path must agree on every randomized
// graph — decision, count and witness feasibility.
func TestKColorEquivalentToThreeCol(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 50; trial++ {
		n := 4 + rng.Intn(12)
		g := graph.PartialKTree(n, 1+rng.Intn(3), 0.35, rng)

		want, err := Decide(g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := KColorable(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: KColorable(g,3)=%v, threecol.Decide=%v", trial, got, want)
		}
		count, err := CountColorings(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		if (count > 0) != want {
			t.Fatalf("trial %d: CountColorings=%d, threecol.Decide=%v", trial, count, want)
		}
		if bf := CountBruteForce(g, 3); count != bf {
			t.Fatalf("trial %d: CountColorings=%d, brute force=%d", trial, count, bf)
		}
	}
}
