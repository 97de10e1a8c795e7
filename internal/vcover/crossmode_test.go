package vcover

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/decompose"
	"repro/internal/graph"
	"repro/internal/solver"
)

// TestCrossModeVertexCover pins the evaluation modes of the cover
// algebra against each other on random partial k-trees: decision ==
// (count > 0) == (optimization finds a feasible witness), Minimum
// agrees with Optimize, the witness covers every edge, and its size is
// the brute-force optimum. (A full cover always exists, so every mode
// must be feasible — the interesting content is the witness and the
// optimum.)
func TestCrossModeVertexCover(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ctx := context.Background()
	for trial := 0; trial < 50; trial++ {
		n := 4 + rng.Intn(12)
		k := 1 + rng.Intn(3)
		g := graph.PartialKTree(n, k, 0.3, rng)
		nice, err := decompose.NiceGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		cp := coverProblem{g}

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
		if !dec || cnt.Sign() <= 0 || der == nil {
			t.Fatalf("trial %d: modes disagree: decide=%v count=%v optimize-feasible=%v",
				trial, dec, cnt, der != nil)
		}

		want, err := BruteForceVC(g)
		if err != nil {
			t.Fatal(err)
		}
		if der.Value != want {
			t.Fatalf("trial %d: Optimize=%d, brute force=%d", trial, der.Value, want)
		}
		cover, err := CoverSet(g)
		if err != nil {
			t.Fatal(err)
		}
		if len(cover) != want {
			t.Fatalf("trial %d: witness size %d, optimum %d", trial, len(cover), want)
		}
		in := make([]bool, g.N())
		for _, v := range cover {
			in[v] = true
		}
		for _, e := range g.Edges() {
			if !in[e[0]] && !in[e[1]] {
				t.Fatalf("trial %d: witness misses edge %v", trial, e)
			}
		}
	}
}
