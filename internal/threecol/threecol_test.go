package threecol

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/mso"
	"repro/internal/solver"
	"repro/internal/stage"
	"repro/internal/tree"
)

func TestDecideKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"triangle", graph.Cycle(3), true},
		{"odd cycle", graph.Cycle(7), true},
		{"K4", graph.Complete(4), false},
		{"K3", graph.Complete(3), true},
		{"grid", graph.Grid(3, 4), true},
		{"path", graph.Path(10), true},
		{"single", graph.New(1), true},
		{"empty-ish", graph.New(3), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Decide(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("Decide = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestColoringWitness(t *testing.T) {
	g := graph.Grid(3, 3)
	in, err := NewInstance(g)
	if err != nil {
		t.Fatal(err)
	}
	colors, ok, err := in.Coloring()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("grid not 3-colorable?")
	}
	for _, e := range g.Edges() {
		if colors[e[0]] == colors[e[1]] {
			t.Fatalf("improper coloring at edge %v", e)
		}
	}
	for v, c := range colors {
		if c < 0 || c > 2 {
			t.Fatalf("vertex %d has color %d", v, c)
		}
	}
	// No witness for K4.
	in4, err := NewInstance(graph.Complete(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := in4.Coloring(); err != nil || ok {
		t.Fatalf("K4 coloring = %v, %v", ok, err)
	}
}

func TestGroundDecide(t *testing.T) {
	for _, tc := range []struct {
		g    *graph.Graph
		want bool
	}{
		{graph.Cycle(5), true},
		{graph.Complete(4), false},
		{graph.Grid(2, 4), true},
	} {
		in, err := NewInstance(tc.g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := in.GroundDecide()
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Fatalf("GroundDecide = %v, want %v", got, tc.want)
		}
	}
}

func TestRejectsInvalidDecomposition(t *testing.T) {
	g := graph.Cycle(4)
	d := tree.New()
	d.SetRoot(d.AddNode([]int{0, 1})) // misses vertices 2, 3 and two edges
	if _, err := NewInstanceWithDecomposition(g, d); err == nil {
		t.Fatal("invalid decomposition accepted")
	}
}

func randGraph(rng *rand.Rand) *graph.Graph {
	n := rng.Intn(9) + 2
	g := graph.RandomTree(n, rng)
	for i := rng.Intn(2 * n); i > 0; i-- {
		g.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return g
}

// Property: DP, grounding and brute force agree on random graphs.
func TestQuickAllPathsAgree(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randGraph(rng)
		in, err := NewInstance(g)
		if err != nil {
			return false
		}
		dpAns, err := in.Decide()
		if err != nil {
			return false
		}
		groundAns, err := in.GroundDecide()
		if err != nil {
			return false
		}
		want := BruteForce(g)
		if dpAns != want || groundAns != want {
			return false
		}
		// When colorable, the witness must be proper.
		colors, ok, err := in.Coloring()
		if err != nil || ok != want {
			return false
		}
		if ok {
			for _, e := range g.Edges() {
				if colors[e[0]] == colors[e[1]] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(79))}); err != nil {
		t.Fatal(err)
	}
}

// Property: the DP agrees with the naive evaluation of the Section 5.1
// MSO sentence on tiny graphs.
func TestQuickAgainstMSO(t *testing.T) {
	sentence := mso.ThreeColorability()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(4) + 2
		g := graph.RandomTree(n, rng)
		for i := rng.Intn(n); i > 0; i-- {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		got, err := Decide(g)
		if err != nil {
			return false
		}
		want, err := mso.Sentence(g.ToStructure(), sentence, nil)
		if err != nil {
			return false
		}
		return got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(83))}); err != nil {
		t.Fatal(err)
	}
}

func TestFigure5Constant(t *testing.T) {
	if len(Figure5) == 0 {
		t.Fatal("Figure5 program text missing")
	}
}

// TestFigure5TableEntriesLinear states the complexity claim behind
// Fig. 5 (E5) as an exact count rather than a timing: a nice node's
// decision table holds at most one state per 3-coloring of its bag, so
// at most 3^(w+1) entries for a nice form of width w, and over seeded
// partial 2-trees of doubling size the entries per vertex stay flat.
// The entries are the budget's table-entry tally for solver.Decide,
// which is deterministic. (Seed 5 reads 6.4–8.0 entries per node at
// w = 3, and 19.6–26.3 per vertex.)
func TestFigure5TableEntriesLinear(t *testing.T) {
	var perVertex []float64
	for _, n := range []int{50, 100, 200, 400, 800} {
		g := graph.PartialKTree(n, 2, 0.3, rand.New(rand.NewSource(5)))
		nice, err := niceFor(g)
		if err != nil {
			t.Fatal(err)
		}
		// The budget tallies table entries only under a positive cap.
		b := &stage.Budget{MaxTableEntries: 1 << 40}
		if _, err := solver.Decide(stage.WithBudget(context.Background(), b), nice, newColorProblem(g, 3)); err != nil {
			t.Fatal(err)
		}
		_, _, entries := b.Used()
		w := nice.Width()
		bound := math.Pow(3, float64(w+1))
		perNode := float64(entries) / float64(nice.Len())
		t.Logf("n=%d: width %d, %d nice nodes, %d entries: %.2f per node, %.2f per vertex",
			n, w, nice.Len(), entries, perNode, float64(entries)/float64(n))
		if perNode > bound {
			t.Errorf("n=%d: %.2f entries per nice node exceed 3^(w+1) = %.0f", n, perNode, bound)
		}
		perVertex = append(perVertex, float64(entries)/float64(n))
	}
	if lo, hi := slices.Min(perVertex), slices.Max(perVertex); hi > 2*lo {
		t.Errorf("entries per vertex range over %.2f–%.2f across sizes, more than a factor of 2", lo, hi)
	}
}
