// Package tree implements tree decompositions of finite structures and
// graphs (Section 2.2), their validation, the two normal forms used by the
// paper — the tuple normal form of Definition 2.3 and the "nice" normal
// form of Section 5 (leaf / introduce / forget / branch nodes) — and the
// construction of the extended τ_td structure of Section 4.
package tree

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/structure"
)

// Kind classifies a node of a normalized tree decomposition.
type Kind int

// Node kinds. Raw decompositions use KindUnknown throughout; the tuple
// normal form (Def. 2.3) uses Leaf/Permutation/Replacement/Branch; the
// nice normal form (Sec. 5) uses Leaf/Introduce/Forget/Copy/Branch.
const (
	KindUnknown     Kind = iota
	KindLeaf             // no children
	KindPermutation      // tuple form: child bag is a permutation of this bag
	KindReplacement      // tuple form: position 0 of the child bag replaced
	KindIntroduce        // nice form: bag = child bag ∪ {Elem}
	KindForget           // nice form: bag = child bag \ {Elem}
	KindCopy             // nice form: bag identical to the only child's bag
	KindBranch           // two children with bags identical to this bag
)

func (k Kind) String() string {
	switch k {
	case KindLeaf:
		return "leaf"
	case KindPermutation:
		return "perm"
	case KindReplacement:
		return "repl"
	case KindIntroduce:
		return "intro"
	case KindForget:
		return "forget"
	case KindCopy:
		return "copy"
	case KindBranch:
		return "branch"
	default:
		return "node"
	}
}

// Node is one node of a rooted tree decomposition.
type Node struct {
	// Bag lists the elements of the node's bag. In the tuple normal form
	// the order is significant (the bag is a tuple of pairwise distinct
	// elements); in raw and nice decompositions it is kept sorted.
	//
	// AddNode, Clone and the normal forms carve Bag and Children out of
	// an array the decomposition's nodes share, each with its capacity
	// cut at its length. An append to either therefore reallocates
	// instead of overwriting the next node's slice, and a write to an
	// element changes this node alone.
	Bag []int
	// Children lists child node IDs; order is significant (child1/child2).
	Children []int
	// Parent is the parent node ID, or -1 for the root.
	Parent int
	// Kind is the node's role in a normal form (KindUnknown if raw).
	Kind Kind
	// Elem is the element introduced (KindIntroduce), forgotten
	// (KindForget), or placed at position 0 (KindReplacement); -1 otherwise.
	Elem int
}

// Decomposition is a rooted tree decomposition: a tree of bags over the
// element IDs of some structure or graph. A nice decomposition carries
// its DP plan (see SortedBags and Schedule), built on first use; the
// mutators below drop it, and editing Nodes or Root directly after the
// plan is built is a caller error.
type Decomposition struct {
	Nodes []Node
	Root  int

	// ints is the array that carve cuts bags and child lists from: its
	// length is what the nodes hold, its capacity the unused tail.
	ints []int

	plan atomic.Pointer[plan]
}

// Chunk sizes of the carving array. A decomposition's first chunk
// holds minChunk ints and each later one twice its predecessor, up to
// maxChunk: a small decomposition keeps a small tail, and a large one
// allocates once per maxChunk ints instead of twice per node.
const (
	minChunk = 32
	maxChunk = 4096
)

// carve copies xs to the end of d's carving array and returns the copy
// with its capacity cut at its length, or nil when xs is empty.
func (d *Decomposition) carve(xs []int) []int {
	if len(xs) == 0 {
		return nil
	}
	if cap(d.ints)-len(d.ints) < len(xs) {
		d.ints = make([]int, 0, max(min(2*cap(d.ints), maxChunk), minChunk, len(xs)))
	}
	i := len(d.ints)
	d.ints = append(d.ints, xs...)
	return d.ints[i:len(d.ints):len(d.ints)]
}

// New returns an empty decomposition with no nodes and an unset root.
func New() *Decomposition {
	return &Decomposition{Root: -1}
}

// NewSized is New for a builder that knows its size: Nodes has room for
// nodes nodes and the carving array for ints bag and child-list
// entries, so a decomposition of that size allocates each array once.
func NewSized(nodes, ints int) *Decomposition {
	return &Decomposition{Root: -1, Nodes: make([]Node, 0, nodes), ints: make([]int, 0, ints)}
}

// AddNode appends a node with the given bag and (already added) children
// and returns its ID. Parent pointers of the children are set. The bag
// and the child list are copied into d's carving array (see Node.Bag):
// the node shares no memory with the caller's slices.
func (d *Decomposition) AddNode(bag []int, children ...int) int {
	id := len(d.Nodes)
	n := Node{
		Bag:      d.carve(bag),
		Children: d.carve(children),
		Parent:   -1,
		Elem:     -1,
	}
	d.Nodes = append(d.Nodes, n)
	for _, c := range children {
		d.Nodes[c].Parent = id
	}
	d.dropPlan()
	return id
}

// SetRoot marks the given node as root.
func (d *Decomposition) SetRoot(id int) {
	d.dropPlan()
	d.Root = id
	d.Nodes[id].Parent = -1
}

// Len returns the number of nodes.
func (d *Decomposition) Len() int { return len(d.Nodes) }

// Width returns max |bag| - 1, or -1 for an empty decomposition.
func (d *Decomposition) Width() int {
	w := 0
	for _, n := range d.Nodes {
		if len(n.Bag) > w {
			w = len(n.Bag)
		}
	}
	return w - 1
}

// BagSet returns node id's bag as a bit set.
func (d *Decomposition) BagSet(id int) *bitset.Set {
	return bitset.FromSlice(d.Nodes[id].Bag)
}

// Leaves returns the IDs of all leaf nodes.
func (d *Decomposition) Leaves() []int {
	var out []int
	for i, n := range d.Nodes {
		if len(n.Children) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// PostOrder returns all node IDs so that children precede parents.
func (d *Decomposition) PostOrder() []int {
	out := make([]int, 0, len(d.Nodes))
	var rec func(int)
	rec = func(v int) {
		for _, c := range d.Nodes[v].Children {
			rec(c)
		}
		out = append(out, v)
	}
	if d.Root >= 0 {
		rec(d.Root)
	}
	return out
}

// PreOrder returns all node IDs so that parents precede children.
func (d *Decomposition) PreOrder() []int {
	post := d.PostOrder()
	out := make([]int, len(post))
	for i, v := range post {
		out[len(post)-1-i] = v
	}
	return out
}

// checkTree verifies that the decomposition is a tree rooted at Root with
// consistent parent/child pointers and every node reachable from the root.
func (d *Decomposition) checkTree() error {
	if len(d.Nodes) == 0 {
		return fmt.Errorf("tree: empty decomposition")
	}
	if d.Root < 0 || d.Root >= len(d.Nodes) {
		return fmt.Errorf("tree: root %d out of range", d.Root)
	}
	if d.Nodes[d.Root].Parent != -1 {
		return fmt.Errorf("tree: root has a parent")
	}
	seen := make([]bool, len(d.Nodes))
	var rec func(int) error
	rec = func(v int) error {
		if seen[v] {
			return fmt.Errorf("tree: node %d visited twice (cycle or shared child)", v)
		}
		seen[v] = true
		for _, c := range d.Nodes[v].Children {
			if c < 0 || c >= len(d.Nodes) {
				return fmt.Errorf("tree: child %d of node %d out of range", c, v)
			}
			if d.Nodes[c].Parent != v {
				return fmt.Errorf("tree: node %d has parent %d, expected %d", c, d.Nodes[c].Parent, v)
			}
			if err := rec(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(d.Root); err != nil {
		return err
	}
	for i, s := range seen {
		if !s {
			return fmt.Errorf("tree: node %d unreachable from root", i)
		}
	}
	return nil
}

// bagSets materializes every bag as a bit set once, shared by the
// validation passes (the seed rebuilt a bit set per tuple/edge probe).
func (d *Decomposition) bagSets() []*bitset.Set {
	bags := make([]*bitset.Set, len(d.Nodes))
	for i := range d.Nodes {
		bags[i] = bitset.FromSlice(d.Nodes[i].Bag)
	}
	return bags
}

// checkConnectedness verifies condition (3) of the tree decomposition
// definition: for every element, the nodes whose bags contain it induce a
// connected subtree. An element's occurrence nodes form a forest whose
// roots are exactly the occurrences whose parent bag lacks the element;
// the subtree is connected iff there is exactly one such root, so one
// linear sweep over all bags suffices.
func (d *Decomposition) checkConnectedness(bags []*bitset.Set) error {
	tops := map[int]int{}
	for v := range d.Nodes {
		pa := d.Nodes[v].Parent
		for _, e := range d.Nodes[v].Bag {
			if pa < 0 || !bags[pa].Has(e) {
				tops[e]++
			}
		}
	}
	for e, t := range tops {
		if t != 1 {
			return fmt.Errorf("tree: element %d violates connectedness (%d disjoint occurrence subtrees)", e, t)
		}
	}
	return nil
}

func containsElem(bag []int, e int) bool {
	for _, b := range bag {
		if b == e {
			return true
		}
	}
	return false
}

// Validate checks that d is a tree decomposition of the structure st:
// tree shape, every element covered, every tuple covered by some bag, and
// connectedness.
func (d *Decomposition) Validate(st *structure.Structure) error {
	if err := d.checkTree(); err != nil {
		return err
	}
	covered := bitset.New(st.Size())
	for _, n := range d.Nodes {
		for _, e := range n.Bag {
			if e < 0 || e >= st.Size() {
				return fmt.Errorf("tree: bag element %d outside domain", e)
			}
			covered.Add(e)
		}
	}
	if covered.Len() != st.Size() {
		return fmt.Errorf("tree: %d of %d elements not covered by any bag", st.Size()-covered.Len(), st.Size())
	}
	bags := d.bagSets()
	// Element → nodes whose bag contains it: a tuple is covered iff some
	// node holding its first element holds all of it, so each tuple probes
	// only that element's occurrence list instead of every node.
	nodesOf := make([][]int32, st.Size())
	for v := range d.Nodes {
		for _, e := range d.Nodes[v].Bag {
			nodesOf[e] = append(nodesOf[e], int32(v))
		}
	}
	for _, p := range st.Sig().Predicates() {
	tuples:
		for _, tuple := range st.Tuples(p.Name) {
			if len(tuple) == 0 {
				continue
			}
			for _, v := range nodesOf[tuple[0]] {
				all := true
				for _, e := range tuple[1:] {
					if !bags[v].Has(e) {
						all = false
						break
					}
				}
				if all {
					continue tuples
				}
			}
			return fmt.Errorf("tree: tuple %s(%v) not covered by any bag", p.Name, st.Names(tuple))
		}
	}
	return d.checkConnectedness(bags)
}

// ValidateGraph checks that d is a tree decomposition of the graph g.
func (d *Decomposition) ValidateGraph(g *graph.Graph) error {
	if err := d.checkTree(); err != nil {
		return err
	}
	covered := bitset.New(g.N())
	for _, n := range d.Nodes {
		for _, e := range n.Bag {
			if e < 0 || e >= g.N() {
				return fmt.Errorf("tree: bag vertex %d outside graph", e)
			}
			covered.Add(e)
		}
	}
	if covered.Len() != g.N() {
		return fmt.Errorf("tree: %d vertices not covered", g.N()-covered.Len())
	}
	// Mark every vertex pair co-resident in some bag (Σ|bag|² work), then
	// check each edge with one bit probe instead of scanning all nodes.
	cov := make([]*bitset.Set, g.N())
	for i := range d.Nodes {
		bag := d.Nodes[i].Bag
		for a, x := range bag {
			for _, y := range bag[a+1:] {
				lo, hi := x, y
				if lo > hi {
					lo, hi = hi, lo
				}
				if cov[lo] == nil {
					cov[lo] = &bitset.Set{}
				}
				cov[lo].Add(hi)
			}
		}
	}
	for _, e := range g.Edges() {
		lo, hi := e[0], e[1]
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo != hi && (cov[lo] == nil || !cov[lo].Has(hi)) {
			return fmt.Errorf("tree: edge {%d,%d} not covered", e[0], e[1])
		}
	}
	return d.checkConnectedness(d.bagSets())
}

// Clone returns a deep copy of the decomposition, without its plan. Its
// bags and child lists are carved from one array of the exact size.
func (d *Decomposition) Clone() *Decomposition {
	c := &Decomposition{Root: d.Root, Nodes: make([]Node, len(d.Nodes))}
	total := 0
	for i := range d.Nodes {
		total += len(d.Nodes[i].Bag) + len(d.Nodes[i].Children)
	}
	c.ints = make([]int, 0, total)
	for i, n := range d.Nodes {
		c.Nodes[i] = Node{
			Bag:      c.carve(n.Bag),
			Children: c.carve(n.Children),
			Parent:   n.Parent,
			Kind:     n.Kind,
			Elem:     n.Elem,
		}
	}
	return c
}

// ReRoot reorients the tree so that newRoot becomes the root. Node kinds
// are reset to KindUnknown (normal forms are direction-dependent).
func (d *Decomposition) ReRoot(newRoot int) {
	if newRoot == d.Root {
		return
	}
	d.dropPlan()
	// Build undirected adjacency, then redo parent/children from newRoot.
	adj := make([][]int, len(d.Nodes))
	for i, n := range d.Nodes {
		for _, c := range n.Children {
			adj[i] = append(adj[i], c)
			adj[c] = append(adj[c], i)
		}
	}
	for i := range d.Nodes {
		d.Nodes[i].Children = nil
		d.Nodes[i].Parent = -1
		d.Nodes[i].Kind = KindUnknown
		d.Nodes[i].Elem = -1
	}
	var rec func(v, parent int)
	rec = func(v, parent int) {
		d.Nodes[v].Parent = parent
		for _, w := range adj[v] {
			if w != parent {
				d.Nodes[v].Children = append(d.Nodes[v].Children, w)
				rec(w, v)
			}
		}
	}
	rec(newRoot, -1)
	d.Root = newRoot
}

// NodeWithElem returns some node whose bag contains e, or -1.
func (d *Decomposition) NodeWithElem(e int) int {
	for i, n := range d.Nodes {
		if containsElem(n.Bag, e) {
			return i
		}
	}
	return -1
}

// SubtreeElems returns the set of elements occurring in any bag of the
// subtree rooted at v (the elements of the induced substructure
// I(A, T_v, v) of Definition 3.2).
func (d *Decomposition) SubtreeElems(v int) *bitset.Set {
	s := &bitset.Set{}
	var rec func(int)
	rec = func(u int) {
		for _, e := range d.Nodes[u].Bag {
			s.Add(e)
		}
		for _, c := range d.Nodes[u].Children {
			rec(c)
		}
	}
	rec(v)
	return s
}

// EnvelopeElems returns the set of elements occurring in any bag of the
// envelope T̄_v (everything except the strict subtree below v; v's own bag
// is included), per Definition 3.1.
func (d *Decomposition) EnvelopeElems(v int) *bitset.Set {
	inSubtree := make([]bool, len(d.Nodes))
	var mark func(int)
	mark = func(u int) {
		inSubtree[u] = true
		for _, c := range d.Nodes[u].Children {
			mark(c)
		}
	}
	mark(v)
	s := &bitset.Set{}
	for i, n := range d.Nodes {
		if inSubtree[i] && i != v {
			continue
		}
		for _, e := range n.Bag {
			s.Add(e)
		}
	}
	return s
}

func sortedBag(bag []int) []int {
	out := append([]int(nil), bag...)
	sort.Ints(out)
	return out
}
