package tree

import (
	"fmt"

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
	work := d.Clone()

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

	out := New()

	// chainTo builds forget/introduce nodes from (fromID, fromSet) up to
	// the target bag set, one element per node, and returns the top node.
	// Forgets run in descending element order and introductions in
	// ascending order: clients that pair elements (like the PRIMALITY
	// algorithms, where a bag holding an FD must also hold its rhs
	// attribute, and FD elements have larger IDs than attributes) then get
	// dependents removed before and added after their anchors.
	chainTo := func(fromID int, fromSet *bitset.Set, target *bitset.Set) (int, *bitset.Set) {
		cur, curSet := fromID, fromSet.Clone()
		for _, e := range reversed(fromSet.Difference(target).Elems()) {
			curSet.Remove(e)
			id := out.AddNode(curSet.Elems(), cur)
			out.Nodes[id].Kind = KindForget
			out.Nodes[id].Elem = e
			cur = id
		}
		for _, e := range target.Difference(fromSet).Elems() {
			curSet.Add(e)
			id := out.AddNode(curSet.Elems(), cur)
			out.Nodes[id].Kind = KindIntroduce
			out.Nodes[id].Elem = e
			cur = id
		}
		return cur, curSet
	}

	var norm func(v int, children []int) (int, *bitset.Set)
	norm = func(v int, children []int) (int, *bitset.Set) {
		bag := bitset.FromSlice(work.Nodes[v].Bag)
		switch len(children) {
		case 0:
			id := out.AddNode(bag.Elems())
			out.Nodes[id].Kind = KindLeaf
			return id, bag
		case 1:
			cid, cset := norm(children[0], work.Nodes[children[0]].Children)
			return chainTo(cid, cset, bag)
		case 2:
			var tops []int
			for _, c := range children {
				cid, cset := norm(c, work.Nodes[c].Children)
				top, _ := chainTo(cid, cset, bag)
				tops = append(tops, top)
			}
			id := out.AddNode(bag.Elems(), tops[0], tops[1])
			out.Nodes[id].Kind = KindBranch
			return id, bag
		default:
			restID, restSet := norm(v, children[1:])
			restTop, _ := chainTo(restID, restSet, bag)
			cid, cset := norm(children[0], work.Nodes[children[0]].Children)
			firstTop, _ := chainTo(cid, cset, bag)
			id := out.AddNode(bag.Elems(), firstTop, restTop)
			out.Nodes[id].Kind = KindBranch
			return id, bag
		}
	}

	rootID, _ := norm(work.Root, work.Nodes[work.Root].Children)
	out.SetRoot(rootID)

	if opts.BranchGuard {
		// Insert an identical-bag copy node above every branch node whose
		// parent bag differs (or which is the root).
		for v := 0; v < len(out.Nodes); v++ {
			n := out.Nodes[v]
			if n.Kind != KindBranch {
				continue
			}
			p := n.Parent
			if p >= 0 && bitset.FromSlice(out.Nodes[p].Bag).Equal(bitset.FromSlice(n.Bag)) {
				continue
			}
			out.insertAbove(v, n.Bag, KindCopy, -1)
		}
	}
	return out, nil
}

func reversed(xs []int) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[len(xs)-1-i] = x
	}
	return out
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

// CheckNice verifies the nice-form node discipline of Section 5.
func CheckNice(d *Decomposition) error {
	if err := d.checkTree(); err != nil {
		return err
	}
	for id, n := range d.Nodes {
		bag := bitset.FromSlice(n.Bag)
		if bag.Len() != len(n.Bag) {
			return fmt.Errorf("tree: node %d bag has duplicates", id)
		}
		switch len(n.Children) {
		case 0:
			if n.Kind != KindLeaf {
				return fmt.Errorf("tree: leaf node %d marked %v", id, n.Kind)
			}
		case 1:
			cbag := bitset.FromSlice(d.Nodes[n.Children[0]].Bag)
			switch n.Kind {
			case KindIntroduce:
				want := cbag.Clone()
				want.Add(n.Elem)
				if cbag.Has(n.Elem) || !bag.Equal(want) {
					return fmt.Errorf("tree: introduce node %d inconsistent", id)
				}
			case KindForget:
				want := cbag.Clone()
				want.Remove(n.Elem)
				if !cbag.Has(n.Elem) || !bag.Equal(want) {
					return fmt.Errorf("tree: forget node %d inconsistent", id)
				}
			case KindCopy:
				if !bag.Equal(cbag) {
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
				if !bag.Equal(bitset.FromSlice(d.Nodes[c].Bag)) {
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
