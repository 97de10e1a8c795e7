package tree

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/structure"
)

// exampleStructure is the τ-structure of Example 2.2 (schema R = abcdeg,
// F = {f1: ab→c, f2: c→b, f3: cd→e, f4: de→g, f5: g→e}).
func exampleStructure(t testing.TB) *structure.Structure {
	t.Helper()
	return structure.MustParse(`
att(a). att(b). att(c). att(d). att(e). att(g).
fd(f1). fd(f2). fd(f3). fd(f4). fd(f5).
lh(a,f1). lh(b,f1). lh(c,f2). lh(c,f3). lh(d,f3). lh(d,f4). lh(e,f4). lh(g,f5).
rh(c,f1). rh(b,f2). rh(e,f3). rh(g,f4). rh(e,f5).
`, nil)
}

// exampleDecomposition builds a width-2 tree decomposition of the running
// example in the spirit of Figure 1, rooted at the bag {d,e,f3}.
func exampleDecomposition(t testing.TB, st *structure.Structure) *Decomposition {
	t.Helper()
	id := func(name string) int {
		e, ok := st.Elem(name)
		if !ok {
			t.Fatalf("element %s missing", name)
		}
		return e
	}
	bag := func(names ...string) []int {
		out := make([]int, len(names))
		for i, n := range names {
			out[i] = id(n)
		}
		return out
	}
	d := New()
	// Left chain: {a,b,f1} - {b,c,f1} - {b,c,f2} - {c,d,f3}
	n1 := d.AddNode(bag("a", "b", "f1"))
	n2 := d.AddNode(bag("b", "c", "f1"), n1)
	n3 := d.AddNode(bag("b", "c", "f2"), n2)
	n4 := d.AddNode(bag("c", "d", "f3"), n3)
	// Right chain: {e,g,f5} - {e,g,f4} - {d,e,f4}
	m1 := d.AddNode(bag("e", "g", "f5"))
	m2 := d.AddNode(bag("e", "g", "f4"), m1)
	m3 := d.AddNode(bag("d", "e", "f4"), m2)
	root := d.AddNode(bag("d", "e", "f3"), n4, m3)
	d.SetRoot(root)
	return d
}

func TestValidateExample(t *testing.T) {
	st := exampleStructure(t)
	d := exampleDecomposition(t, st)
	if err := d.Validate(st); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if w := d.Width(); w != 2 {
		t.Fatalf("Width = %d, want 2 (the paper's tw(A))", w)
	}
}

func TestValidateDetectsViolations(t *testing.T) {
	st := exampleStructure(t)

	// Missing element coverage.
	d := exampleDecomposition(t, st)
	a, _ := st.Elem("a")
	d.Nodes[0].Bag = removeElem(d.Nodes[0].Bag, a)
	if err := d.Validate(st); err == nil || !strings.Contains(err.Error(), "not covered") {
		t.Fatalf("uncovered element not detected: %v", err)
	}

	// Missing tuple coverage: drop f1 from the bag where rh(c,f1) lives.
	d = exampleDecomposition(t, st)
	f1, _ := st.Elem("f1")
	c, _ := st.Elem("c")
	d.Nodes[1].Bag = removeElem(d.Nodes[1].Bag, c)
	_ = f1
	if err := d.Validate(st); err == nil {
		t.Fatal("uncovered tuple not detected")
	}

	// Connectedness violation: put element a into a far-away bag.
	d = exampleDecomposition(t, st)
	d.Nodes[4].Bag = append(d.Nodes[4].Bag, a)
	if err := d.Validate(st); err == nil || !strings.Contains(err.Error(), "connectedness") {
		t.Fatalf("connectedness violation not detected: %v", err)
	}

	// Broken tree: cycle.
	d = exampleDecomposition(t, st)
	d.Nodes[0].Children = []int{d.Root}
	if err := d.Validate(st); err == nil {
		t.Fatal("cycle not detected")
	}
}

func removeElem(bag []int, e int) []int {
	out := bag[:0]
	for _, x := range bag {
		if x != e {
			out = append(out, x)
		}
	}
	return out
}

func TestTraversals(t *testing.T) {
	st := exampleStructure(t)
	d := exampleDecomposition(t, st)
	post := d.PostOrder()
	if len(post) != d.Len() || post[len(post)-1] != d.Root {
		t.Fatal("PostOrder wrong")
	}
	pre := d.PreOrder()
	if pre[0] != d.Root {
		t.Fatal("PreOrder wrong")
	}
	seen := map[int]bool{}
	for _, v := range post {
		for _, c := range d.Nodes[v].Children {
			if !seen[c] {
				t.Fatal("child after parent in PostOrder")
			}
		}
		seen[v] = true
	}
	if got := len(d.Leaves()); got != 2 {
		t.Fatalf("Leaves = %d, want 2", got)
	}
}

func TestReRoot(t *testing.T) {
	st := exampleStructure(t)
	d := exampleDecomposition(t, st)
	d.ReRoot(0)
	if d.Root != 0 {
		t.Fatal("ReRoot did not move root")
	}
	if err := d.Validate(st); err != nil {
		t.Fatalf("re-rooted decomposition invalid: %v", err)
	}
	d.ReRoot(0) // no-op
	if err := d.Validate(st); err != nil {
		t.Fatal(err)
	}
}

func TestSubtreeAndEnvelope(t *testing.T) {
	// Figure 3: at the node with bag {b,c,...}, the subtree contains the
	// a/b/c/f1/f2 part and the envelope the rest plus the bag.
	st := exampleStructure(t)
	d := exampleDecomposition(t, st)
	// Node 2 has bag {b,c,f2}; its subtree is nodes 0..2.
	sub := d.SubtreeElems(2)
	for _, name := range []string{"a", "b", "c", "f1", "f2"} {
		e, _ := st.Elem(name)
		if !sub.Has(e) {
			t.Fatalf("subtree missing %s", name)
		}
	}
	if e, _ := st.Elem("g"); sub.Has(e) {
		t.Fatal("subtree contains g")
	}
	env := d.EnvelopeElems(2)
	for _, name := range []string{"b", "c", "f2", "d", "e", "g", "f3", "f4", "f5"} {
		e, _ := st.Elem(name)
		if !env.Has(e) {
			t.Fatalf("envelope missing %s", name)
		}
	}
	for _, name := range []string{"a", "f1"} {
		if e, _ := st.Elem(name); env.Has(e) {
			t.Fatalf("envelope contains %s", name)
		}
	}
	// Subtree ∪ envelope = whole domain; intersection = bag elements only
	// for elements, since node 2's bag is the interface.
	if sub.Union(env).Len() != st.Size() {
		t.Fatal("subtree ∪ envelope != domain")
	}
}

func TestNormalizeTupleExample(t *testing.T) {
	st := exampleStructure(t)
	d := exampleDecomposition(t, st)
	norm, err := NormalizeTuple(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckTuple(norm, 2); err != nil {
		t.Fatalf("CheckTuple: %v", err)
	}
	if err := norm.Validate(st); err != nil {
		t.Fatalf("normalized decomposition invalid: %v", err)
	}
	if norm.Width() != 2 {
		t.Fatalf("width changed to %d", norm.Width())
	}
}

func TestNormalizeNiceExample(t *testing.T) {
	st := exampleStructure(t)
	d := exampleDecomposition(t, st)
	nice, err := NormalizeNice(d, NiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckNice(nice); err != nil {
		t.Fatalf("CheckNice: %v", err)
	}
	if err := nice.Validate(st); err != nil {
		t.Fatalf("nice decomposition invalid: %v", err)
	}
	if nice.Width() != 2 {
		t.Fatalf("width changed to %d", nice.Width())
	}
}

func TestEnumerationForm(t *testing.T) {
	st := exampleStructure(t)
	d := exampleDecomposition(t, st)
	attrs := &bitset.Set{}
	for _, tup := range st.Tuples("att") {
		attrs.Add(tup[0])
	}
	nice, err := NormalizeNice(d, NiceOptions{LeafElems: attrs, BranchGuard: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckEnumerable(nice, attrs); err != nil {
		t.Fatalf("CheckEnumerable: %v", err)
	}
	if err := nice.Validate(st); err != nil {
		t.Fatalf("enumeration-form decomposition invalid: %v", err)
	}
	if nice.Width() != 2 {
		t.Fatalf("width changed to %d", nice.Width())
	}
}

func TestBuildTD(t *testing.T) {
	st := exampleStructure(t)
	d := exampleDecomposition(t, st)
	norm, err := NormalizeTuple(d)
	if err != nil {
		t.Fatal(err)
	}
	td, nodeElem, err := BuildTD(st, norm, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(td.Tuples("root")) != 1 {
		t.Fatal("root relation wrong")
	}
	if got := len(td.Tuples("bag")); got != norm.Len() {
		t.Fatalf("|bag| = %d, want %d", got, norm.Len())
	}
	// child1 holds for every non-root node that is a first/only child.
	nChild1 := 0
	nChild2 := 0
	for _, n := range norm.Nodes {
		if len(n.Children) >= 1 {
			nChild1++
		}
		if len(n.Children) == 2 {
			nChild2++
		}
	}
	if got := len(td.Tuples("child1")); got != nChild1 {
		t.Fatalf("|child1| = %d, want %d", got, nChild1)
	}
	if got := len(td.Tuples("child2")); got != nChild2 {
		t.Fatalf("|child2| = %d, want %d", got, nChild2)
	}
	// Original facts survive.
	c, _ := td.Elem("c")
	f1, _ := td.Elem("f1")
	if !td.Has("rh", c, f1) {
		t.Fatal("original relation lost in τ_td structure")
	}
	// Raw (non-normalized) decompositions are rejected.
	if _, _, err := BuildTD(st, d, 2); err == nil {
		t.Fatal("BuildTD accepted a raw decomposition")
	}
	_ = nodeElem
}

func TestFormat(t *testing.T) {
	st := exampleStructure(t)
	d := exampleDecomposition(t, st)
	out := d.Format(st.Name)
	if !strings.Contains(out, "(d e f3)") && !strings.Contains(out, "(d e f3") {
		t.Fatalf("Format output unexpected:\n%s", out)
	}
	if strings.Count(out, "\n") != d.Len() {
		t.Fatalf("Format line count = %d, want %d", strings.Count(out, "\n"), d.Len())
	}
}

// TestPlanSharesNiceBags pins that the DP plan of a nice form holds the
// nodes' own bags rather than copies (NormalizeNice keeps them sorted),
// and that it copies and sorts a bag only when one is out of order.
func TestPlanSharesNiceBags(t *testing.T) {
	st := exampleStructure(t)
	nice, err := NormalizeNice(exampleDecomposition(t, st), NiceOptions{LeafElems: st.DomSet(), BranchGuard: true})
	if err != nil {
		t.Fatal(err)
	}
	bags, err := nice.SortedBags()
	if err != nil {
		t.Fatal(err)
	}
	for v, bag := range bags {
		own := nice.Nodes[v].Bag
		if len(bag) != len(own) || len(bag) > 0 && &bag[0] != &own[0] {
			t.Fatalf("plan bag of node %d is a copy, not the node's own bag", v)
		}
	}

	// A hand-built nice form whose leaf bag is out of order: the plan
	// sorts a copy and leaves the node's bag as it was.
	d := New()
	leaf := d.AddNode([]int{2, 1})
	d.Nodes[leaf].Kind = KindLeaf
	top := d.AddNode([]int{1}, leaf)
	d.Nodes[top].Kind, d.Nodes[top].Elem = KindForget, 2
	d.SetRoot(top)
	bags, err = d.SortedBags()
	if err != nil {
		t.Fatal(err)
	}
	if got := bags[leaf]; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("plan bag of the unsorted leaf = %v, want [1 2]", got)
	}
	if got := d.Nodes[leaf].Bag; got[0] != 2 || got[1] != 1 {
		t.Fatalf("planning reordered the node's own bag: %v", got)
	}
	if &bags[top][0] != &d.Nodes[top].Bag[0] {
		t.Fatal("plan copied the sorted bag of the forget node")
	}
}

// TestCarvedAppendReallocates pins the carving contract of Node.Bag:
// the bags and child lists of neighbouring nodes share one array, so an
// append to a node's Bag or Children must reallocate rather than write
// over the slice carved next (NormalizeNice appends to Children when it
// attaches a leaf). It checks the three carvers: AddNode, Clone and
// insertAbove.
func TestCarvedAppendReallocates(t *testing.T) {
	d := New()
	a := d.AddNode([]int{1, 2})
	b := d.AddNode([]int{3, 4}, a)
	c := d.AddNode([]int{5, 6})
	root := d.AddNode([]int{7}, b, c)
	d.SetRoot(root)

	check := func(name string, d *Decomposition) {
		t.Helper()
		want := [][]int{{1, 2}, {3, 4}, {5, 6}, {7}}
		// Carving order is bag, then children, node by node: b's bag is
		// followed by b's child list, which is followed by c's bag.
		d.Nodes[b].Bag = append(d.Nodes[b].Bag, 99)
		d.Nodes[b].Children = append(d.Nodes[b].Children, 98)
		d.Nodes[a].Bag = append(d.Nodes[a].Bag, 97)
		if got := d.Nodes[b].Children; len(got) != 2 || got[0] != a || got[1] != 98 {
			t.Fatalf("%s: children of b = %v after appends, want [%d 98]", name, got, a)
		}
		for v, w := range want {
			got := d.Nodes[v].Bag
			if v == a || v == b {
				got = got[:len(got)-1]
			}
			if !slices.Equal(got, w) {
				t.Fatalf("%s: bag of node %d = %v after appends to its neighbours, want %v", name, v, d.Nodes[v].Bag, w)
			}
		}
	}
	clone := d.Clone()
	// The copy's child list is the last carved slice, so an append that
	// wrote in place would land in the array's free tail, where the
	// next AddNode carves its bag.
	copyID := d.insertAbove(c, d.Nodes[c].Bag, KindCopy, -1)
	d.Nodes[copyID].Children = append(d.Nodes[copyID].Children, 96)
	next := d.AddNode([]int{8, 9})
	if got := d.Nodes[copyID].Children; !slices.Equal(got, []int{c, 96}) {
		t.Fatalf("insertAbove: children of the copy = %v after the next AddNode, want [%d 96]", got, c)
	}
	if got := d.Nodes[next].Bag; !slices.Equal(got, []int{8, 9}) {
		t.Fatalf("AddNode after insertAbove: bag = %v, want [8 9]", got)
	}
	check("AddNode", d)
	check("Clone", clone)
}

// Property: normalizing a heuristic decomposition of a random structure
// yields valid normal forms of the same width.
func TestQuickNormalization(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng)
		st := g.ToStructure()
		d := greedyDecomposition(g)
		if d.Validate(st) != nil {
			return false
		}
		w := d.Width()

		norm, err := NormalizeTuple(d)
		if err != nil || CheckTuple(norm, w) != nil || norm.Validate(st) != nil || norm.Width() != w {
			return false
		}
		nice, err := NormalizeNice(d, NiceOptions{LeafElems: st.DomSet(), BranchGuard: true})
		if err != nil || CheckEnumerable(nice, st.DomSet()) != nil || nice.Validate(st) != nil || nice.Width() != w {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Fatal(err)
	}
}

// randomGraph returns a small random connected graph.
func randomGraph(rng *rand.Rand) *graph.Graph {
	n := rng.Intn(8) + 3
	g := graph.RandomTree(n, rng)
	extra := rng.Intn(n)
	for i := 0; i < extra; i++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return g
}

// greedyDecomposition builds a raw decomposition via min-degree
// elimination; duplicated here to avoid an import cycle with decompose.
func greedyDecomposition(g *graph.Graph) *Decomposition {
	n := g.N()
	adj := make([]*bitset.Set, n)
	alive := bitset.New(n)
	for v := 0; v < n; v++ {
		adj[v] = g.Neighbors(v).Clone()
		alive.Add(v)
	}
	later := make([][]int, n)
	var order []int
	for k := 0; k < n; k++ {
		best, bestDeg := -1, n+1
		alive.ForEach(func(v int) bool {
			if deg := adj[v].Intersect(alive).Len(); deg < bestDeg {
				best, bestDeg = v, deg
			}
			return true
		})
		nb := adj[best].Intersect(alive)
		nb.Remove(best)
		later[best] = nb.Elems()
		for i := 0; i < len(later[best]); i++ {
			for j := i + 1; j < len(later[best]); j++ {
				adj[later[best][i]].Add(later[best][j])
				adj[later[best][j]].Add(later[best][i])
			}
		}
		alive.Remove(best)
		order = append(order, best)
	}
	pos := make([]int, n)
	for i, v := range order {
		pos[v] = i
	}
	parent := make([]int, n)
	for v := range parent {
		parent[v] = -1
	}
	for _, v := range order {
		first := -1
		for _, u := range later[v] {
			if first < 0 || pos[u] < pos[first] {
				first = u
			}
		}
		parent[v] = first
	}
	rootV := order[n-1]
	for v := 0; v < n; v++ {
		if parent[v] < 0 && v != rootV {
			parent[v] = rootV
		}
	}
	children := make([][]int, n)
	for v := 0; v < n; v++ {
		if parent[v] >= 0 {
			children[parent[v]] = append(children[parent[v]], v)
		}
	}
	d := New()
	var build func(v int) int
	build = func(v int) int {
		var kids []int
		for _, c := range children[v] {
			kids = append(kids, build(c))
		}
		return d.AddNode(append([]int{v}, later[v]...), kids...)
	}
	d.SetRoot(build(rootV))
	return d
}
