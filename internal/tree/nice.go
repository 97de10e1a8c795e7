package tree

import (
	"fmt"
	"slices"

	"repro/internal/bitset"
)

// NiceOptions controls NormalizeNice.
type NiceOptions struct {
	// LeafElems, if non-nil, requests that every element of the set occurs
	// in the bag of at least one leaf node (needed by the PRIMALITY
	// enumeration algorithm of Section 5.3, where prime(a) is decided at a
	// leaf containing a).
	LeafElems *bitset.Set
	// BranchGuard requests the Section 5.3 discipline: every branch node
	// has a parent with an identical bag (a copy node is inserted where
	// needed), so a branch node always has two identical-bag children no
	// matter where the tree is rooted, and the root is never a branch.
	BranchGuard bool
}

// NormalizeNice transforms a valid tree decomposition into the modified
// ("nice") normal form of Section 5: bags are sets, and every node is a
// leaf, an element introduction node (bag = child's bag plus one element),
// an element removal node (bag = child's bag minus one element), a copy
// node (bag identical to the only child's), or a branch node (two children
// with bags identical to its own). Width is preserved and the output size
// is linear in the input size.
func NormalizeNice(d *Decomposition, opts NiceOptions) (*Decomposition, error) {
	if err := d.checkTree(); err != nil {
		return nil, err
	}
	// The work tree's bags become sorted sets, which the chains below
	// walk and the nice form keeps.
	work := d.Clone()
	for v := range work.Nodes {
		bag := work.Nodes[v].Bag
		slices.Sort(bag)
		work.Nodes[v].Bag = slices.Compact(bag)
	}

	// Ensure requested elements occur in leaf bags by attaching a fresh
	// leaf (with the same bag) below some node containing the element.
	if opts.LeafElems != nil {
		inLeaf := &bitset.Set{}
		for _, l := range work.Leaves() {
			for _, e := range work.Nodes[l].Bag {
				inLeaf.Add(e)
			}
		}
		opts.LeafElems.ForEach(func(e int) bool {
			if inLeaf.Has(e) {
				return true
			}
			t := work.NodeWithElem(e)
			if t < 0 {
				return true // not in the decomposition at all; Validate will catch it elsewhere
			}
			leaf := work.AddNode(work.Nodes[t].Bag)
			work.Nodes[t].Children = append(work.Nodes[t].Children, leaf)
			work.Nodes[leaf].Parent = t
			for _, e2 := range work.Nodes[leaf].Bag {
				inLeaf.Add(e2)
			}
			return true
		})
	}

	out := NewSized(niceSize(work))
	cur := make([]int, 0, work.Width()+1)

	// chainTo builds forget/introduce nodes from node from up to the
	// target bag, one element per node, and returns the top node.
	// Forgets run in descending element order and introductions in
	// ascending order: clients that pair elements (like the PRIMALITY
	// algorithms, where a bag holding an FD must also hold its rhs
	// attribute, and FD elements have larger IDs than attributes) then get
	// dependents removed before and added after their anchors. cur walks
	// the sorted bag from one node of the chain to the next.
	chainTo := func(from int, target []int) int {
		cur = append(cur[:0], out.Nodes[from].Bag...)
		for i := len(cur) - 1; i >= 0; i-- {
			e := cur[i]
			if _, ok := slices.BinarySearch(target, e); ok {
				continue
			}
			cur = slices.Delete(cur, i, i+1)
			from = out.AddNode(cur, from)
			out.Nodes[from].Kind = KindForget
			out.Nodes[from].Elem = e
		}
		for _, e := range target {
			i, ok := slices.BinarySearch(cur, e)
			if ok {
				continue
			}
			cur = slices.Insert(cur, i, e)
			from = out.AddNode(cur, from)
			out.Nodes[from].Kind = KindIntroduce
			out.Nodes[from].Elem = e
		}
		return from
	}

	var norm func(v int, children []int) int
	norm = func(v int, children []int) int {
		bag := work.Nodes[v].Bag
		switch len(children) {
		case 0:
			id := out.AddNode(bag)
			out.Nodes[id].Kind = KindLeaf
			return id
		case 1:
			return chainTo(norm(children[0], work.Nodes[children[0]].Children), bag)
		case 2:
			var tops [2]int
			for i, c := range children {
				tops[i] = chainTo(norm(c, work.Nodes[c].Children), bag)
			}
			id := out.AddNode(bag, tops[0], tops[1])
			out.Nodes[id].Kind = KindBranch
			return id
		default:
			restTop := chainTo(norm(v, children[1:]), bag)
			firstTop := chainTo(norm(children[0], work.Nodes[children[0]].Children), bag)
			id := out.AddNode(bag, firstTop, restTop)
			out.Nodes[id].Kind = KindBranch
			return id
		}
	}

	out.SetRoot(norm(work.Root, work.Nodes[work.Root].Children))

	if opts.BranchGuard {
		// Insert an identical-bag copy node above every branch node whose
		// parent bag differs (or which is the root). These are the only
		// nodes niceSize leaves out.
		for v := 0; v < len(out.Nodes); v++ {
			n := out.Nodes[v]
			if n.Kind != KindBranch {
				continue
			}
			if p := n.Parent; p >= 0 && slices.Equal(out.Nodes[p].Bag, n.Bag) {
				continue
			}
			out.insertAbove(v, n.Bag, KindCopy, -1)
		}
	}
	return out, nil
}

// niceSize counts the nodes of NormalizeNice's output for the work tree
// w, whose bags are sorted sets, and the ints their bags and child lists
// take, without BranchGuard's copy nodes. A leaf gives one node, a node
// with k children k−1 branch nodes, and an edge one chain node per
// element in the symmetric difference of its two bags: its forgets
// shrink the child's bag to the common part, then its introductions
// grow it to the parent's.
func niceSize(w *Decomposition) (nodes, ints int) {
	for _, n := range w.Nodes {
		if len(n.Children) == 0 {
			nodes++
			ints += len(n.Bag)
			continue
		}
		nodes += len(n.Children) - 1
		ints += (len(n.Children) - 1) * (len(n.Bag) + 2)
		for _, c := range n.Children {
			cbag := w.Nodes[c].Bag
			k := commonSorted(cbag, n.Bag)
			chain := len(cbag) + len(n.Bag) - 2*k
			nodes += chain
			ints += chain + sumRange(k, len(cbag)-1) + sumRange(k+1, len(n.Bag))
		}
	}
	return nodes, ints
}

// commonSorted returns |a ∩ b| for sorted sets a and b.
func commonSorted(a, b []int) int {
	n := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// sumRange returns lo + (lo+1) + … + hi, or 0 when hi < lo.
func sumRange(lo, hi int) int {
	if hi < lo {
		return 0
	}
	return (lo + hi) * (hi - lo + 1) / 2
}

// insertAbove creates a new node with the given bag between v and its
// parent (or above the root) and returns its ID.
func (d *Decomposition) insertAbove(v int, bag []int, kind Kind, elem int) int {
	p := d.Nodes[v].Parent
	id := len(d.Nodes)
	d.Nodes = append(d.Nodes, Node{
		Bag:      d.carve(bag),
		Children: d.carve([]int{v}),
		Parent:   p,
		Kind:     kind,
		Elem:     elem,
	})
	d.Nodes[v].Parent = id
	if p >= 0 {
		for i, c := range d.Nodes[p].Children {
			if c == v {
				d.Nodes[p].Children[i] = id
			}
		}
	} else {
		d.Root = id
	}
	return id
}

// CheckNice verifies the nice-form node discipline of Section 5. Bags
// need not be sorted. It compares them through one stamp array, marked
// with a fresh stamp per bag, instead of building sets.
func CheckNice(d *Decomposition) error {
	if err := d.checkTree(); err != nil {
		return err
	}
	size := 0
	for id, n := range d.Nodes {
		for _, e := range n.Bag {
			if e < 0 {
				return fmt.Errorf("tree: node %d bag holds negative element %d", id, e)
			}
			size = max(size, e+1)
		}
	}
	mark, stamp := make([]int, size), 0
	// stampBag marks the elements of bag with a fresh stamp and reports
	// whether they are distinct.
	stampBag := func(bag []int) bool {
		stamp++
		for _, e := range bag {
			if mark[e] == stamp {
				return false
			}
			mark[e] = stamp
		}
		return true
	}
	marked := func(e int) bool { return e >= 0 && e < size && mark[e] == stamp }
	// common returns how many elements of bag the last stampBag marked.
	common := func(bag []int) int {
		n := 0
		for _, e := range bag {
			if mark[e] == stamp {
				n++
			}
		}
		return n
	}
	for id, n := range d.Nodes {
		if !stampBag(n.Bag) {
			return fmt.Errorf("tree: node %d bag has duplicates", id)
		}
	}
	// Every bag is a set now, so sizes and common counts decide equality.
	for id, n := range d.Nodes {
		switch len(n.Children) {
		case 0:
			if n.Kind != KindLeaf {
				return fmt.Errorf("tree: leaf node %d marked %v", id, n.Kind)
			}
		case 1:
			cbag := d.Nodes[n.Children[0]].Bag
			stampBag(cbag)
			switch n.Kind {
			case KindIntroduce:
				if marked(n.Elem) || len(n.Bag) != len(cbag)+1 || common(n.Bag) != len(cbag) || !slices.Contains(n.Bag, n.Elem) {
					return fmt.Errorf("tree: introduce node %d inconsistent", id)
				}
			case KindForget:
				if !marked(n.Elem) || len(n.Bag) != len(cbag)-1 || common(n.Bag) != len(n.Bag) || slices.Contains(n.Bag, n.Elem) {
					return fmt.Errorf("tree: forget node %d inconsistent", id)
				}
			case KindCopy:
				if len(n.Bag) != len(cbag) || common(n.Bag) != len(n.Bag) {
					return fmt.Errorf("tree: copy node %d changes bag", id)
				}
			default:
				return fmt.Errorf("tree: one-child node %d has kind %v", id, n.Kind)
			}
		case 2:
			if n.Kind != KindBranch {
				return fmt.Errorf("tree: two-child node %d has kind %v", id, n.Kind)
			}
			for _, c := range n.Children {
				stampBag(d.Nodes[c].Bag)
				if len(n.Bag) != len(d.Nodes[c].Bag) || common(n.Bag) != len(n.Bag) {
					return fmt.Errorf("tree: branch node %d child %d bag differs", id, c)
				}
			}
		default:
			return fmt.Errorf("tree: node %d has %d children", id, len(n.Children))
		}
	}
	return nil
}

// CheckEnumerable verifies the additional Section 5.3 discipline on top of
// CheckNice: every element of elems occurs in some leaf bag, every branch
// node's parent has an identical bag, and the root is not a branch node.
func CheckEnumerable(d *Decomposition, elems *bitset.Set) error {
	if err := CheckNice(d); err != nil {
		return err
	}
	inLeaf := &bitset.Set{}
	for _, l := range d.Leaves() {
		for _, e := range d.Nodes[l].Bag {
			inLeaf.Add(e)
		}
	}
	if elems != nil && !elems.SubsetOf(inLeaf) {
		missing := elems.Difference(inLeaf)
		return fmt.Errorf("tree: elements %v not in any leaf bag", missing.Elems())
	}
	for id, n := range d.Nodes {
		if n.Kind != KindBranch {
			continue
		}
		if n.Parent < 0 {
			return fmt.Errorf("tree: root %d is a branch node", id)
		}
		if !bitset.FromSlice(d.Nodes[n.Parent].Bag).Equal(bitset.FromSlice(n.Bag)) {
			return fmt.Errorf("tree: branch node %d parent bag differs", id)
		}
	}
	return nil
}
