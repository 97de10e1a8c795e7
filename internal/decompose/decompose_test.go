package decompose

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/structure"
	"repro/internal/tree"
)

func TestKnownTreewidths(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"path10", graph.Path(10), 1},
		{"cycle8", graph.Cycle(8), 2},
		{"K5", graph.Complete(5), 4},
		{"grid3x3", graph.Grid(3, 3), 3},
		{"grid2x5", graph.Grid(2, 5), 2},
		{"single", graph.New(1), 0},
		{"tree", graph.RandomTree(12, rand.New(rand.NewSource(1))), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Treewidth(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("Treewidth = %d, want %d", got, tc.want)
			}
			d, err := Exact(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.ValidateGraph(tc.g); err != nil {
				t.Fatalf("exact decomposition invalid: %v", err)
			}
			if d.Width() != tc.want {
				t.Fatalf("exact decomposition width = %d, want %d", d.Width(), tc.want)
			}
		})
	}
}

func TestExactRejectsLarge(t *testing.T) {
	if _, err := Treewidth(graph.Path(MaxExactVertices + 1)); err == nil {
		t.Fatal("exact search accepted a too-large graph")
	}
}

func TestHeuristicsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.PartialKTree(60, 3, 0.2, rng)
	for _, h := range []Heuristic{MinDegree, MinFill} {
		d, err := Graph(g, h)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.ValidateGraph(g); err != nil {
			t.Fatalf("heuristic %v invalid: %v", h, err)
		}
		if d.Width() < 3 {
			t.Fatalf("width %d below partial 3-tree possibility is suspicious", d.Width())
		}
	}
}

func TestHeuristicExactOnKTrees(t *testing.T) {
	// Min-fill recovers the exact width on full k-trees.
	rng := rand.New(rand.NewSource(9))
	for _, k := range []int{1, 2, 3} {
		g := graph.KTree(25, k, rng)
		d, err := Graph(g, MinFill)
		if err != nil {
			t.Fatal(err)
		}
		if d.Width() != k {
			t.Fatalf("min-fill width on %d-tree = %d", k, d.Width())
		}
	}
}

func TestStructureDecomposition(t *testing.T) {
	st := structure.MustParse(`
att(a). att(b). att(c). fd(f1). fd(f2).
lh(a,f1). lh(b,f1). rh(c,f1). lh(c,f2). rh(b,f2).
`, nil)
	d, err := Structure(st, MinFill)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(st); err != nil {
		t.Fatalf("structure decomposition invalid: %v", err)
	}
}

func TestFromOrderErrors(t *testing.T) {
	g := graph.Path(3)
	if _, err := FromOrder(g, []int{0, 1}); err == nil {
		t.Fatal("short order accepted")
	}
	if _, err := FromOrder(g, []int{0, 1, 5}); err == nil {
		t.Fatal("out-of-range order accepted")
	}
	if _, err := FromOrder(g, []int{0, 0, 1}); err == nil {
		t.Fatal("duplicate order accepted")
	}
	d, err := FromOrder(graph.New(0), nil)
	if err != nil || d.Len() != 1 {
		t.Fatalf("empty graph: %v, len %d", err, d.Len())
	}
}

func TestLowerBound(t *testing.T) {
	if lb := LowerBoundMMD(graph.Complete(6)); lb != 5 {
		t.Fatalf("MMD(K6) = %d, want 5", lb)
	}
	if lb := LowerBoundMMD(graph.Path(10)); lb != 1 {
		t.Fatalf("MMD(path) = %d, want 1", lb)
	}
	if lb := LowerBoundMMD(graph.Grid(4, 4)); lb < 2 {
		t.Fatalf("MMD(grid4) = %d, want ≥ 2", lb)
	}
}

func TestBestOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := graph.PartialKTree(30, 2, 0.3, rng)
	o := BestOrder(g, 4, rng)
	d, err := FromOrder(g, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ValidateGraph(g); err != nil {
		t.Fatal(err)
	}
}

// Property: any permutation yields a valid decomposition, the heuristics
// never beat the exact width, and MMD never exceeds it.
func TestQuickEliminationProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(8) + 2
		g := graph.RandomTree(n, rng)
		for i := rng.Intn(2 * n); i > 0; i-- {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		perm := rng.Perm(n)
		d, err := FromOrder(g, perm)
		if err != nil || d.ValidateGraph(g) != nil {
			return false
		}
		exact, err := Treewidth(g)
		if err != nil {
			return false
		}
		if d.Width() < exact {
			return false
		}
		for _, h := range []Heuristic{MinDegree, MinFill} {
			hd, err := Graph(g, h)
			if err != nil || hd.ValidateGraph(g) != nil || hd.Width() < exact {
				return false
			}
		}
		return LowerBoundMMD(g) <= exact
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(23))}); err != nil {
		t.Fatal(err)
	}
}

// Property: normalized forms of heuristic decompositions remain valid.
func TestQuickNormalizeAfterDecompose(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.PartialKTree(rng.Intn(15)+5, rng.Intn(3)+1, 0.2, rng)
		st := g.ToStructure()
		d, err := Structure(st, MinFill)
		if err != nil || d.Validate(st) != nil {
			return false
		}
		norm, err := tree.NormalizeTuple(d)
		if err != nil {
			return false
		}
		return tree.CheckTuple(norm, d.Width()) == nil && norm.Validate(st) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(29))}); err != nil {
		t.Fatal(err)
	}
}

// naiveOrder recomputes every score from scratch each round — the seed's
// O(n²·d²) reference semantics the incremental eliminator must reproduce
// exactly (including (score, vertex) tie-breaking).
func naiveOrder(g *graph.Graph, h Heuristic) []int {
	n := g.N()
	adj := make([]map[int]bool, n)
	for v := 0; v < n; v++ {
		adj[v] = map[int]bool{}
		g.Neighbors(v).ForEach(func(u int) bool {
			if u != v {
				adj[v][u] = true
			}
			return true
		})
	}
	alive := make([]bool, n)
	for v := range alive {
		alive[v] = true
	}
	score := func(v int) int {
		var nbs []int
		for u := range adj[v] {
			if alive[u] {
				nbs = append(nbs, u)
			}
		}
		if h == MinDegree {
			return len(nbs)
		}
		fill := 0
		for i, a := range nbs {
			for _, b := range nbs[i+1:] {
				if !adj[a][b] {
					fill++
				}
			}
		}
		return fill
	}
	order := make([]int, 0, n)
	for k := 0; k < n; k++ {
		best, bestScore := -1, 0
		for v := 0; v < n; v++ {
			if !alive[v] {
				continue
			}
			if s := score(v); best < 0 || s < bestScore {
				best, bestScore = v, s
			}
		}
		order = append(order, best)
		var nbs []int
		for u := range adj[best] {
			if alive[u] {
				nbs = append(nbs, u)
			}
		}
		for i, a := range nbs {
			for _, b := range nbs[i+1:] {
				adj[a][b] = true
				adj[b][a] = true
			}
		}
		alive[best] = false
	}
	return order
}

// TestQuickIncrementalMatchesNaive pins the incremental eliminator to the
// naive rescan reference on random graphs, for both heuristics.
func TestQuickIncrementalMatchesNaive(t *testing.T) {
	for _, h := range []Heuristic{MinDegree, MinFill} {
		h := h
		prop := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n := rng.Intn(25) + 1
			g := graph.RandomTree(n, rng)
			for i := rng.Intn(2 * n); i > 0; i-- {
				g.AddEdge(rng.Intn(n), rng.Intn(n))
			}
			got := Order(g, h)
			want := naiveOrder(g, h)
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(int64(17 + h)))}); err != nil {
			t.Fatalf("heuristic %v: %v", h, err)
		}
	}
}

// TestNodesSizedOnce pins that a raw decomposition and its nice form
// each allocate their Nodes array once, at its final size: FromOrderCtx
// knows it makes one node per vertex, and NormalizeNice counts its
// output before building it. Growing Nodes by append had left up to
// half of each array unused. The nice forms must still pass CheckNice.
func TestNodesSizedOnce(t *testing.T) {
	for _, n := range []int{40, 120, 400} {
		g := graph.PartialKTree(n, 2, 0.3, rand.New(rand.NewSource(int64(n))))
		d, err := Graph(g, MinFill)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Nodes) != n || cap(d.Nodes) != n {
			t.Errorf("n=%d: raw decomposition has %d nodes in an array of %d, want %d in %d", n, len(d.Nodes), cap(d.Nodes), n, n)
		}
		nice, err := tree.NormalizeNice(d, tree.NiceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(nice.Nodes) != cap(nice.Nodes) {
			t.Errorf("n=%d: nice form has %d nodes in an array of %d", n, len(nice.Nodes), cap(nice.Nodes))
		}
		if err := tree.CheckNice(nice); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
		t.Logf("n=%d: %d/%d raw, %d/%d nice", n, len(d.Nodes), cap(d.Nodes), len(nice.Nodes), cap(nice.Nodes))
	}
}

// TestNiceFormAllocGate gates the allocations of building a nice form
// and its DP plan: NiceGraph, then SortedBags, on a seeded partial
// 3-tree of 400 vertices (1,444 nice nodes), as a cold /solve builds
// them. Allocation counts are deterministic, so the ceiling is 1.10×
// the count measured (go1.24, linux/amd64) once both arrays were sized
// before they were filled and CheckNice and NormalizeNice compared
// sorted bags and stamps instead of bit sets. Before that, one
// allocation per bag, per child list and per plan bag made 25,791;
// carving bags and child lists from shared arrays and sharing the nice
// form's bags with the plan made 20,548.
func TestNiceFormAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are gated without -race")
	}
	const measured = 6_602
	g := graph.PartialKTree(400, 3, 0.3, rand.New(rand.NewSource(1)))
	build := func() {
		nice, err := NiceGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		if nice.Len() != 1444 {
			t.Fatalf("nice form has %d nodes, want 1444", nice.Len())
		}
		if _, err := nice.SortedBags(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5, build)
	t.Logf("%.0f allocations per nice form and plan (ceiling %.0f)", allocs, 1.10*measured)
	if allocs > 1.10*measured {
		t.Fatalf("%.0f allocations per nice form and plan, ceiling %.0f", allocs, 1.10*measured)
	}
}
