// Package primality implements the paper's PRIMALITY algorithms over
// relational schemas of bounded treewidth: the Figure 6 decision program
// (is attribute a part of a key?) as a dynamic program over a nice tree
// decomposition, and the Section 5.3 linear-time enumeration of all prime
// attributes via the additional top-down solve↓ pass. A naive quadratic
// enumeration (re-rooting the decomposition per attribute) and a full
// grounding to a propositional Horn program are provided as baselines for
// the experiments of Section 6.
package primality

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"repro/internal/bitset"
	"repro/internal/schema"
	"repro/internal/solver"
	"repro/internal/structure"
	"repro/internal/tree"
)

// ctx carries the schema, its τ-structure encoding and the element-level
// lookup tables the DP handlers need.
type ctx struct {
	s       *schema.Schema
	st      *structure.Structure
	isAttr  []bool      // element → is an attribute
	fdOf    map[int]int // FD element → FD index
	lhs     [][]int     // FD index → lhs attribute elements
	rhs     []int       // FD index → rhs attribute element
	attElem []int       // attribute index → element
	pool    *interner
}

func newCtx(s *schema.Schema) *ctx {
	st := s.ToStructure()
	c := &ctx{
		s:       s,
		st:      st,
		isAttr:  make([]bool, st.Size()),
		fdOf:    map[int]int{},
		lhs:     make([][]int, s.NumFDs()),
		rhs:     make([]int, s.NumFDs()),
		attElem: make([]int, s.NumAttrs()),
		pool:    newInterner(),
	}
	for i := 0; i < s.NumAttrs(); i++ {
		e, _ := st.Elem(s.AttrName(i))
		c.isAttr[e] = true
		c.attElem[i] = e
	}
	for fi, f := range s.FDs() {
		fe, _ := st.Elem(f.Name)
		c.fdOf[fe] = fi
		c.rhs[fi], _ = st.Elem(s.AttrName(f.RHS))
		for _, a := range f.LHS {
			e, _ := st.Elem(s.AttrName(a))
			c.lhs[fi] = append(c.lhs[fi], e)
		}
	}
	return c
}

// state is the argument tuple of the solve predicate of Figure 6, over
// element IDs: Y and Co partition the bag's attributes (Co ordered by the
// derivation sequence), FY the bag FDs verified not to contradict the
// closedness of Y, DC ⊆ Co the bag attributes already derived, FC the bag
// FDs used in the derivation.
type state struct {
	y, co, fy, dc, fc []int // y, fy, dc, fc sorted; co ordered
}

// interner hash-conses states to dense int32 IDs so the DP tables hash and
// compare machine integers instead of structured keys (the seed rendered
// every state to a string per transition — the dominant cost of the
// PRIMALITY hot path). Each state also gets a signature ID covering the
// (Y, Co, FC) part; two states are branch-compatible iff their signatures
// coincide, so the branch rule rejects incompatible pairs with a single
// integer comparison. Interned states are immutable: their slices must
// never be mutated after intern.
type interner struct {
	mu     sync.RWMutex
	ids    map[string]int32
	states []state
	sigs   []int32 // state ID → signature ID
	sigIDs map[string]int32
}

func newInterner() *interner {
	return &interner{ids: map[string]int32{}, sigIDs: map[string]int32{}}
}

// appendPart encodes one state component as uvarints shifted by one, with
// a zero byte terminating the part (element IDs are non-negative, so the
// shifted encoding never produces a zero byte inside a part).
func appendPart(buf []byte, part []int) []byte {
	for _, e := range part {
		buf = binary.AppendUvarint(buf, uint64(e)+1)
	}
	return append(buf, 0)
}

func (p *interner) intern(s state) int32 {
	buf := make([]byte, 0, 64)
	buf = appendPart(buf, s.y)
	buf = appendPart(buf, s.co)
	buf = appendPart(buf, s.fc)
	sigLen := len(buf) // the (Y, Co, FC) prefix is the branch signature
	buf = appendPart(buf, s.fy)
	buf = appendPart(buf, s.dc)
	key := string(buf)
	p.mu.RLock()
	id, ok := p.ids[key]
	p.mu.RUnlock()
	if ok {
		return id
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if id, ok := p.ids[key]; ok {
		return id
	}
	sigKey := key[:sigLen]
	sid, ok := p.sigIDs[sigKey]
	if !ok {
		sid = int32(len(p.sigIDs))
		p.sigIDs[sigKey] = sid
	}
	id = int32(len(p.states))
	p.states = append(p.states, s)
	p.sigs = append(p.sigs, sid)
	p.ids[key] = id
	return id
}

func (p *interner) get(id int32) state {
	p.mu.RLock()
	s := p.states[id]
	p.mu.RUnlock()
	return s
}

func (p *interner) sig(id int32) int32 {
	p.mu.RLock()
	s := p.sigs[id]
	p.mu.RUnlock()
	return s
}

func contains(xs []int, e int) bool {
	for _, x := range xs {
		if x == e {
			return true
		}
	}
	return false
}

func insertSorted(xs []int, e int) []int {
	out := make([]int, 0, len(xs)+1)
	placed := false
	for _, x := range xs {
		if !placed && e < x {
			out = append(out, e)
			placed = true
		}
		out = append(out, x)
	}
	if !placed {
		out = append(out, e)
	}
	return out
}

func removeVal(xs []int, e int) []int {
	out := make([]int, 0, len(xs))
	for _, x := range xs {
		if x != e {
			out = append(out, x)
		}
	}
	return out
}

func pos(xs []int, e int) int {
	for i, x := range xs {
		if x == e {
			return i
		}
	}
	return -1
}

// consistent checks the ordering condition of the consistent predicate:
// every FD of fc has its rhs in co with all co-members of its lhs earlier.
func (c *ctx) consistent(fc []int, co []int) bool {
	for _, fe := range fc {
		fi := c.fdOf[fe]
		rp := pos(co, c.rhs[fi])
		if rp < 0 {
			return false
		}
		for _, b := range c.lhs[fi] {
			if bp := pos(co, b); bp >= 0 && bp >= rp {
				return false
			}
		}
	}
	return true
}

// witnessed reports whether FD fi has a left-hand-side attribute in co
// (the outside predicate's discharge condition restricted to the bag).
func witnessed(c *ctx, fi int, co []int) bool {
	for _, b := range c.lhs[fi] {
		if contains(co, b) {
			return true
		}
	}
	return false
}

// splitBag separates a bag into attribute and FD elements (each sorted,
// as bags are).
func (c *ctx) splitBag(bag []int) (attrs, fds []int) {
	for _, e := range bag {
		if e < len(c.isAttr) && c.isAttr[e] {
			attrs = append(attrs, e)
		} else {
			fds = append(fds, e)
		}
	}
	return attrs, fds
}

// leafStates enumerates the solve states of a leaf node (and of the root
// for the top-down pass): every partition of the bag attributes into
// Y/ordered Co, every consistent choice of used FDs FC, with FY and ΔC
// determined (the leaf rule of Figure 6).
func (c *ctx) leafStates(dst []solver.Out[int32], bag []int) []solver.Out[int32] {
	attrs, fds := c.splitBag(bag)
	subsets(attrs, func(y, rest []int) {
		permute(rest, func(co []int) {
			// FY is determined by Y and the bag: all FDs with rhs outside
			// Y witnessed by some lhs attribute in Co.
			var fy []int
			for _, fe := range fds {
				fi := c.fdOf[fe]
				if !contains(y, c.rhs[fi]) && witnessed(c, fi, co) {
					fy = append(fy, fe)
				}
			}
			// Candidate used FDs: rhs in Co.
			var candidates []int
			for _, fe := range fds {
				if contains(co, c.rhs[c.fdOf[fe]]) {
					candidates = append(candidates, fe)
				}
			}
			subsets(candidates, func(fc, _ []int) {
				if !c.consistent(fc, co) {
					return
				}
				var dc []int
				for _, fe := range fc {
					dc = insertDedupSorted(dc, c.rhs[c.fdOf[fe]])
				}
				st := state{
					y:  append([]int(nil), y...),
					co: append([]int(nil), co...),
					fy: append([]int(nil), fy...),
					dc: dc,
					fc: append([]int(nil), fc...),
				}
				dst = append(dst, solver.Out[int32]{State: c.pool.intern(st)})
			})
		})
	})
	return dst
}

func insertDedupSorted(xs []int, e int) []int {
	if contains(xs, e) {
		return xs
	}
	return insertSorted(xs, e)
}

// subsets enumerates all subsets of xs, calling f with (subset, rest).
func subsets(xs []int, f func(in, out []int)) {
	n := len(xs)
	for mask := 0; mask < 1<<uint(n); mask++ {
		var in, out []int
		for i, x := range xs {
			if mask&(1<<uint(i)) != 0 {
				in = append(in, x)
			} else {
				out = append(out, x)
			}
		}
		f(in, out)
	}
}

// permute enumerates all orderings of xs.
func permute(xs []int, f func([]int)) {
	perm := append([]int(nil), xs...)
	var rec func(k int)
	rec = func(k int) {
		if k == len(perm) {
			f(perm)
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	if len(perm) == 0 {
		f(perm)
	}
}

// introduce implements the attribute/FD introduction rules of Figure 6.
func (c *ctx) introduce(dst []solver.Out[int32], bag []int, elem int, childID int32) []solver.Out[int32] {
	child := c.pool.get(childID)
	if c.isAttr[elem] {
		// Case Y: all other arguments unchanged.
		sy := child
		sy.y = insertSorted(child.y, elem)
		dst = append(dst, solver.Out[int32]{State: c.pool.intern(sy)})
		// Case Co: insert at every position; re-check order consistency
		// and discharge newly witnessed FDs.
		_, fds := c.splitBag(bag)
		for p := 0; p <= len(child.co); p++ {
			co := make([]int, 0, len(child.co)+1)
			co = append(co, child.co[:p]...)
			co = append(co, elem)
			co = append(co, child.co[p:]...)
			if !c.consistent(child.fc, co) {
				continue
			}
			fy := append([]int(nil), child.fy...)
			for _, fe := range fds {
				fi := c.fdOf[fe]
				if !contains(child.y, c.rhs[fi]) && contains(c.lhs[fi], elem) {
					fy = insertDedupSorted(fy, fe)
				}
			}
			sc := state{y: child.y, co: co, fy: fy, dc: child.dc, fc: child.fc}
			dst = append(dst, solver.Out[int32]{State: c.pool.intern(sc)})
		}
		return dst
	}
	// FD introduction.
	fi, ok := c.fdOf[elem]
	if !ok {
		return dst
	}
	rhs := c.rhs[fi]
	if contains(child.y, rhs) {
		// Rule 1: rhs ∈ Y — unchanged.
		return append(dst, solver.Out[int32]{State: childID})
	}
	if !contains(child.co, rhs) {
		// The bag discipline (rhs present whenever the FD is) is violated;
		// prepareDecomposition prevents this.
		return dst
	}
	discharge := func() []int {
		if witnessed(c, fi, child.co) {
			return insertDedupSorted(append([]int(nil), child.fy...), elem)
		}
		return child.fy
	}
	// Rule 3: f not used in the derivation.
	s3 := state{y: child.y, co: child.co, fy: discharge(), dc: child.dc, fc: child.fc}
	dst = append(dst, solver.Out[int32]{State: c.pool.intern(s3)})
	// Rule 2: f used — rhs newly derived (disjoint union with ΔC) and the
	// ordering must be consistent.
	if !contains(child.dc, rhs) && c.consistent([]int{elem}, child.co) {
		s2 := state{
			y:  child.y,
			co: child.co,
			fy: discharge(),
			dc: insertSorted(child.dc, rhs),
			fc: insertSorted(child.fc, elem),
		}
		dst = append(dst, solver.Out[int32]{State: c.pool.intern(s2)})
	}
	return dst
}

// forget implements the attribute/FD removal rules of Figure 6.
func (c *ctx) forget(dst []solver.Out[int32], elem int, childID int32) []solver.Out[int32] {
	child := c.pool.get(childID)
	if c.isAttr[elem] {
		if contains(child.y, elem) {
			s := state{y: removeVal(child.y, elem), co: child.co, fy: child.fy, dc: child.dc, fc: child.fc}
			return append(dst, solver.Out[int32]{State: c.pool.intern(s)})
		}
		// elem ∈ Co: its derivation must have been established.
		if !contains(child.dc, elem) {
			return dst
		}
		s := state{y: child.y, co: removeVal(child.co, elem), fy: child.fy, dc: removeVal(child.dc, elem), fc: child.fc}
		return append(dst, solver.Out[int32]{State: c.pool.intern(s)})
	}
	fi, ok := c.fdOf[elem]
	if !ok {
		return dst
	}
	if contains(child.y, c.rhs[fi]) {
		// Rule 1: rhs ∈ Y — f was never a threat.
		return append(dst, solver.Out[int32]{State: childID})
	}
	// Rules 2/3: f must have been verified (f ∈ FY) before leaving.
	if !contains(child.fy, elem) {
		return dst
	}
	s := state{y: child.y, co: child.co, fy: removeVal(child.fy, elem), dc: child.dc, fc: removeVal(child.fc, elem)}
	return append(dst, solver.Out[int32]{State: c.pool.intern(s)})
}

// branch implements the branch rule of Figure 6: identical Y, Co and FC,
// unions of FY and ΔC, and the unique condition (an attribute may be
// derived in both subtrees only via a shared bag FD). The signature check
// replaces the three slice comparisons of the equality precondition with
// one integer comparison.
func (c *ctx) branch(dst []solver.Out[int32], k1, k2 int32) []solver.Out[int32] {
	if c.pool.sig(k1) != c.pool.sig(k2) {
		return dst
	}
	s1, s2 := c.pool.get(k1), c.pool.get(k2)
	// unique(ΔC1, ΔC2, FC).
	inter := map[int]bool{}
	for _, e := range s1.dc {
		if contains(s2.dc, e) {
			inter[e] = true
		}
	}
	fromFC := map[int]bool{}
	for _, fe := range s1.fc {
		fromFC[c.rhs[c.fdOf[fe]]] = true
	}
	if len(inter) != len(fromFC) {
		return dst
	}
	for e := range inter {
		if !fromFC[e] {
			return dst
		}
	}
	fy := append([]int(nil), s1.fy...)
	for _, fe := range s2.fy {
		fy = insertDedupSorted(fy, fe)
	}
	dc := append([]int(nil), s1.dc...)
	for _, e := range s2.dc {
		dc = insertDedupSorted(dc, e)
	}
	s := state{y: s1.y, co: s1.co, fy: fy, dc: dc, fc: s1.fc}
	return append(dst, solver.Out[int32]{State: c.pool.intern(s)})
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// accepting reports whether a state at a node whose envelope/subtree is
// the whole structure certifies primality of attribute element aElem (the
// "result" rule of Figure 6): a ∉ Y, every bag FD with rhs outside Y
// verified, and everything in Co except a derived.
func (c *ctx) accepting(bag []int, id int32, aElem int) bool {
	s := c.pool.get(id)
	if contains(s.y, aElem) || !contains(s.co, aElem) {
		return false
	}
	_, fds := c.splitBag(bag)
	var wantFY []int
	for _, fe := range fds {
		if !contains(s.y, c.rhs[c.fdOf[fe]]) {
			wantFY = append(wantFY, fe)
		}
	}
	if !equalInts(s.fy, wantFY) {
		return false
	}
	wantDC := append([]int(nil), s.co...)
	sort.Ints(wantDC)
	wantDC = removeVal(wantDC, aElem)
	return equalInts(s.dc, wantDC)
}

// prepareDecomposition pads every bag containing an FD element with the
// FD's right-hand-side attribute (the Section 5.2 requirement; in the
// worst case this doubles the width) and validates the result.
func (c *ctx) prepareDecomposition(d *tree.Decomposition) error {
	for i := range d.Nodes {
		bag := bitset.FromSlice(d.Nodes[i].Bag)
		changed := false
		for _, e := range d.Nodes[i].Bag {
			if fi, ok := c.fdOf[e]; ok && !bag.Has(c.rhs[fi]) {
				bag.Add(c.rhs[fi])
				changed = true
			}
		}
		if changed {
			d.Nodes[i].Bag = bag.Elems()
		}
	}
	return d.Validate(c.st)
}

// checkDiscipline verifies the bag discipline on a normalized
// decomposition: every bag containing an FD also contains its rhs.
func (c *ctx) checkDiscipline(d *tree.Decomposition) error {
	for i, n := range d.Nodes {
		bag := bitset.FromSlice(n.Bag)
		for _, e := range n.Bag {
			if fi, ok := c.fdOf[e]; ok && !bag.Has(c.rhs[fi]) {
				return fmt.Errorf("primality: node %d holds FD %s without its rhs %s", i, c.st.Name(e), c.st.Name(c.rhs[fi]))
			}
		}
	}
	return nil
}
