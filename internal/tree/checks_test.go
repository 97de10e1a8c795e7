package tree

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/graph"
)

// Negative-path tests for the normal-form validators: each discipline
// violation must be reported.

func TestCheckTupleViolations(t *testing.T) {
	st := exampleStructure(t)
	base := func() *Decomposition {
		d := exampleDecomposition(t, st)
		norm, err := NormalizeTuple(d)
		if err != nil {
			t.Fatal(err)
		}
		return norm
	}

	cases := []struct {
		name   string
		break_ func(*Decomposition)
		want   string
	}{
		{"short bag", func(d *Decomposition) { d.Nodes[0].Bag = d.Nodes[0].Bag[:2] }, "size"},
		{"duplicate entries", func(d *Decomposition) { d.Nodes[0].Bag[1] = d.Nodes[0].Bag[0] }, "duplicate"},
		{"wrong leaf kind", func(d *Decomposition) { d.Nodes[0].Kind = KindBranch }, "marked"},
		{"permutation changes content", func(d *Decomposition) {
			v := findKind(d, KindPermutation)
			d.Nodes[v].Bag = append([]int(nil), d.Nodes[d.Nodes[v].Children[0]].Bag...)
			d.Nodes[v].Bag[0] = freshElem(d)
		}, "changes bag"},
		{"replacement touches tail", func(d *Decomposition) {
			v := findKind(d, KindReplacement)
			c := d.Nodes[v].Children[0]
			d.Nodes[v].Bag = append([]int(nil), d.Nodes[c].Bag...)
			d.Nodes[v].Bag[1] = freshElem(d)
			d.Nodes[v].Bag[0] = d.Nodes[c].Bag[0]
		}, "positions beyond 0"},
		{"replacement replaces nothing", func(d *Decomposition) {
			v := findKind(d, KindReplacement)
			c := d.Nodes[v].Children[0]
			d.Nodes[v].Bag = append([]int(nil), d.Nodes[c].Bag...)
		}, "replaces nothing"},
		{"replacement Elem wrong", func(d *Decomposition) {
			v := findKind(d, KindReplacement)
			d.Nodes[v].Elem = d.Nodes[v].Bag[1]
		}, "has Elem"},
		{"one-child wrong kind", func(d *Decomposition) {
			v := findKind(d, KindPermutation)
			d.Nodes[v].Kind = KindBranch
		}, "has kind"},
		{"branch wrong kind", func(d *Decomposition) {
			v := findKind(d, KindBranch)
			d.Nodes[v].Kind = KindPermutation
		}, "has kind"},
		{"branch child bag differs", func(d *Decomposition) {
			v := findKind(d, KindBranch)
			c := d.Nodes[v].Children[0]
			d.Nodes[c].Bag = append([]int(nil), d.Nodes[c].Bag...)
			d.Nodes[c].Bag[0], d.Nodes[c].Bag[1] = d.Nodes[c].Bag[1], d.Nodes[c].Bag[0]
		}, "different bag"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := base()
			tc.break_(d)
			err := CheckTuple(d, 2)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckTuple = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func findKind(d *Decomposition, k Kind) int {
	for i, n := range d.Nodes {
		if n.Kind == k {
			return i
		}
	}
	panic("kind not found")
}

// freshElem returns an element ID not occurring in any bag.
func freshElem(d *Decomposition) int {
	max := 0
	for _, n := range d.Nodes {
		for _, e := range n.Bag {
			if e >= max {
				max = e + 1
			}
		}
	}
	return max
}

func TestCheckNiceViolations(t *testing.T) {
	st := exampleStructure(t)
	base := func() *Decomposition {
		d := exampleDecomposition(t, st)
		nice, err := NormalizeNice(d, NiceOptions{BranchGuard: true})
		if err != nil {
			t.Fatal(err)
		}
		return nice
	}

	cases := []struct {
		name   string
		break_ func(*Decomposition)
		want   string
	}{
		{"duplicates", func(d *Decomposition) {
			v := findKind(d, KindIntroduce)
			d.Nodes[v].Bag = append(d.Nodes[v].Bag, d.Nodes[v].Bag[0])
		}, "duplicates"},
		{"introduce inconsistent", func(d *Decomposition) {
			v := findKind(d, KindIntroduce)
			d.Nodes[v].Elem = freshElem(d)
		}, "introduce"},
		{"forget inconsistent", func(d *Decomposition) {
			v := findKind(d, KindForget)
			d.Nodes[v].Elem = freshElem(d)
		}, "forget"},
		{"copy changes bag", func(d *Decomposition) {
			v := findKind(d, KindCopy)
			d.Nodes[v].Bag = append([]int(nil), d.Nodes[v].Bag[1:]...)
			d.Nodes[v].Kind = KindCopy
		}, "copy"},
		{"leaf kind wrong", func(d *Decomposition) {
			v := d.Leaves()[0]
			d.Nodes[v].Kind = KindForget
		}, "leaf"},
		{"one-child kind wrong", func(d *Decomposition) {
			v := findKind(d, KindForget)
			d.Nodes[v].Kind = KindBranch
		}, "kind"},
		// Shrinking a branch child's bag violates the discipline at the
		// child itself or at the branch, depending on the child's kind;
		// any error suffices.
		{"branch child differs", func(d *Decomposition) {
			v := findKind(d, KindBranch)
			c := d.Nodes[v].Children[0]
			d.Nodes[c].Bag = d.Nodes[c].Bag[1:]
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := base()
			tc.break_(d)
			if err := CheckNice(d); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckNice = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestCheckNiceUnsortedBags pins that CheckNice compares bags as sets:
// a nice form with every bag reversed passes, and it still fails once
// an introduce node names an element its bag lacks.
func TestCheckNiceUnsortedBags(t *testing.T) {
	st := exampleStructure(t)
	nice, err := NormalizeNice(exampleDecomposition(t, st), NiceOptions{BranchGuard: true})
	if err != nil {
		t.Fatal(err)
	}
	for v := range nice.Nodes {
		slices.Reverse(nice.Nodes[v].Bag)
	}
	if err := CheckNice(nice); err != nil {
		t.Fatalf("CheckNice on reversed bags: %v", err)
	}
	nice.Nodes[findKind(nice, KindIntroduce)].Elem = freshElem(nice)
	if err := CheckNice(nice); err == nil || !strings.Contains(err.Error(), "introduce") {
		t.Fatalf("CheckNice = %v, want an introduce error", err)
	}
}

func TestCheckEnumerableViolations(t *testing.T) {
	st := exampleStructure(t)
	d := exampleDecomposition(t, st)
	attrs := st.DomSet()
	nice, err := NormalizeNice(d, NiceOptions{LeafElems: attrs, BranchGuard: true})
	if err != nil {
		t.Fatal(err)
	}
	// Branch parent with differing bag.
	broken := nice.Clone()
	v := findKind(broken, KindBranch)
	p := broken.Nodes[v].Parent
	broken.Nodes[p].Bag = broken.Nodes[p].Bag[1:]
	// The parent edit also breaks CheckNice; CheckEnumerable must fail
	// either way.
	if err := CheckEnumerable(broken, attrs); err == nil {
		t.Fatal("broken branch guard accepted")
	}
	// Element missing from every leaf.
	extra := attrs.Clone()
	extra.Add(10_000)
	if err := CheckEnumerable(nice, extra); err == nil || !strings.Contains(err.Error(), "leaf") {
		t.Fatalf("missing leaf element accepted: %v", err)
	}
}

func TestKindStringAndBagSet(t *testing.T) {
	for k, want := range map[Kind]string{
		KindLeaf: "leaf", KindPermutation: "perm", KindReplacement: "repl",
		KindIntroduce: "intro", KindForget: "forget", KindCopy: "copy",
		KindBranch: "branch", KindUnknown: "node",
	} {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q", k, k.String())
		}
	}
	d := New()
	id := d.AddNode([]int{3, 1})
	if !d.BagSet(id).Equal(bitset.FromSlice([]int{1, 3})) {
		t.Fatal("BagSet wrong")
	}
}

func TestValidateGraphErrors(t *testing.T) {
	g := graph.Cycle(4)
	good := New()
	n1 := good.AddNode([]int{0, 1, 2})
	n2 := good.AddNode([]int{0, 2, 3}, n1)
	good.SetRoot(n2)
	if err := good.ValidateGraph(g); err != nil {
		t.Fatalf("valid decomposition rejected: %v", err)
	}

	// Vertex out of range.
	bad := good.Clone()
	bad.Nodes[0].Bag = append(bad.Nodes[0].Bag, 99)
	if err := bad.ValidateGraph(g); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
	// Uncovered vertex.
	bad2 := New()
	m := bad2.AddNode([]int{0, 1})
	bad2.SetRoot(m)
	if err := bad2.ValidateGraph(g); err == nil || !strings.Contains(err.Error(), "not covered") {
		t.Fatalf("uncovered vertices accepted: %v", err)
	}
	// Uncovered edge.
	bad3 := New()
	m1 := bad3.AddNode([]int{0, 1})
	m2 := bad3.AddNode([]int{2}, m1)
	m3 := bad3.AddNode([]int{3}, m2)
	bad3.SetRoot(m3)
	if err := bad3.ValidateGraph(g); err == nil || !strings.Contains(err.Error(), "edge") {
		t.Fatalf("uncovered edge accepted: %v", err)
	}
}

func TestNodeWithElemMissing(t *testing.T) {
	d := New()
	d.SetRoot(d.AddNode([]int{1}))
	if d.NodeWithElem(99) != -1 {
		t.Fatal("missing element found")
	}
	if d.NodeWithElem(1) != 0 {
		t.Fatal("present element not found")
	}
}
