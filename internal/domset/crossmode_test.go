package domset

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/decompose"
	"repro/internal/graph"
	"repro/internal/solver"
)

// TestCrossModeDominatingSet pins the evaluation modes of the
// domination algebra against each other on random partial k-trees:
// decision == (count > 0) == (optimization finds a feasible witness),
// Minimum agrees with Optimize, the witness dominates every vertex, and
// its size is the brute-force optimum. (The all-vertices set always
// dominates, so every mode must be feasible.)
func TestCrossModeDominatingSet(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	ctx := context.Background()
	for trial := 0; trial < 50; trial++ {
		n := 4 + rng.Intn(10)
		k := 1 + rng.Intn(3)
		g := graph.PartialKTree(n, k, 0.3, rng)
		nice, err := decompose.NiceGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		prob := domProblem{g}

		dec, err := solver.Decide(ctx, nice, prob)
		if err != nil {
			t.Fatal(err)
		}
		cnt, err := solver.Count(ctx, nice, prob)
		if err != nil {
			t.Fatal(err)
		}
		der, err := solver.Optimize(ctx, nice, prob)
		if err != nil {
			t.Fatal(err)
		}
		minimum, err := solver.Minimum(ctx, nice, prob)
		if err != nil {
			t.Fatal(err)
		}
		if (minimum == nil) != (der == nil) || (minimum != nil && minimum.Value != der.Value) {
			t.Fatalf("trial %d: Minimum = %+v, Optimize = %+v", trial, minimum, der)
		}
		if !dec || cnt.Sign() <= 0 || der == nil {
			t.Fatalf("trial %d: modes disagree: decide=%v count=%v optimize-feasible=%v",
				trial, dec, cnt, der != nil)
		}

		want, err := BruteForce(g)
		if err != nil {
			t.Fatal(err)
		}
		if der.Value != want {
			t.Fatalf("trial %d: Optimize=%d, brute force=%d", trial, der.Value, want)
		}
		set, err := DominatingSet(g)
		if err != nil {
			t.Fatal(err)
		}
		if len(set) != want {
			t.Fatalf("trial %d: witness size %d, optimum %d", trial, len(set), want)
		}
		in := make([]bool, g.N())
		for _, v := range set {
			in[v] = true
		}
		for v := 0; v < g.N(); v++ {
			if in[v] {
				continue
			}
			dominatedV := false
			g.Neighbors(v).ForEach(func(u int) bool {
				if in[u] {
					dominatedV = true
					return false
				}
				return true
			})
			if !dominatedV {
				t.Fatalf("trial %d: witness leaves vertex %d undominated", trial, v)
			}
		}
	}
}
