package primality

// This file implements the generalization the paper's conclusion points
// at: the relevance problem of propositional abduction over definite Horn
// theories, which "is basically the same as the problem of deciding
// primality in a subschema R' ⊆ R" (Section 7; worked out in full in the
// authors' AAAI'08 paper [20]).
//
// Setting: attributes are propositional atoms, FDs are definite Horn
// clauses, H ⊆ R are the hypotheses and M ⊆ R the manifestations. A set
// E ⊆ H is an explanation if M ⊆ clos(E); hypothesis a is RELEVANT if it
// belongs to some ⊆-minimal explanation. Because closure is monotone,
//
//	a relevant  ⇔  ∃ Y₀ ⊆ H\{a}:  M ⊆ clos(Y₀ ∪ {a})  ∧  M ⊄ clos(Y₀).
//
// Subschema primality is the special case H = M = R'; ordinary primality
// (Fig. 6) is H = M = R.
//
// The dynamic program extends the Figure 6 state: replacing Y₀ by the
// closed set Y = clos(Y₀) (which satisfies Y = clos(Y ∩ (H\{a}))), every
// bag attribute takes one of four roles —
//
//	generator   ∈ Y, member of Y₀ (must lie in H; a is excluded at the
//	            final check since a ∉ Y there)
//	y-derived   ∈ Y, derived from generators and earlier y-derived
//	            attributes (mirrored Co machinery inside Y)
//	co          ∉ Y, scheduled for derivation from Y ∪ {a} (the original
//	            Co machinery; a itself stays underived)
//	ignored     ∉ Y, never derived (allowed only outside M, and never
//	            usable on the left of a used FD)
//
// and every bag FD is unused, used for the Y-derivation (fcy/dcy), or
// used for the Co-derivation (fc/dc). The closedness machinery (FY) is
// unchanged. A bit (mOut) records that some manifestation lies outside Y,
// which is exactly M ⊄ clos(Y₀).

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bitset"
	"repro/internal/schema"
	"repro/internal/solver"
	"repro/internal/tree"
)

// rstate is the relevance DP state; see the file comment for the roles.
type rstate struct {
	yGen []int // sorted
	yDer []int // ordered by the Y-derivation sequence
	dcy  []int // sorted subset of yDer already derived
	fcy  []int // sorted bag FDs used for the Y-derivation
	co   []int // ordered by the Co-derivation sequence
	ign  []int // sorted
	dc   []int // sorted subset of co already derived
	fc   []int // sorted bag FDs used for the Co-derivation
	fy   []int // sorted bag FDs verified against closedness of Y
	mOut bool
}

func (s rstate) encode() string {
	var b strings.Builder
	for i, part := range [][]int{s.yGen, s.yDer, s.dcy, s.fcy, s.co, s.ign, s.dc, s.fc, s.fy} {
		if i > 0 {
			b.WriteByte('|')
		}
		for j, e := range part {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(e))
		}
	}
	if s.mOut {
		b.WriteString("|1")
	} else {
		b.WriteString("|0")
	}
	return b.String()
}

// out is the transition output of s: its encoded key.
func (s rstate) out() solver.Out[string] { return solver.Out[string]{State: s.encode()} }

func decodeR(key string) rstate {
	parts := strings.Split(key, "|")
	read := func(p string) []int {
		if p == "" {
			return nil
		}
		fields := strings.Split(p, ",")
		out := make([]int, len(fields))
		for i, f := range fields {
			out[i], _ = strconv.Atoi(f)
		}
		return out
	}
	return rstate{
		yGen: read(parts[0]), yDer: read(parts[1]), dcy: read(parts[2]), fcy: read(parts[3]),
		co: read(parts[4]), ign: read(parts[5]), dc: read(parts[6]), fc: read(parts[7]),
		fy: read(parts[8]), mOut: parts[9] == "1",
	}
}

// rctx extends ctx with the hypothesis and manifestation sets (element
// IDs).
type rctx struct {
	*ctx
	hyp *bitset.Set
	man *bitset.Set
}

func (c *rctx) inY(s rstate, e int) bool  { return contains(s.yGen, e) || contains(s.yDer, e) }
func (c *rctx) inCo(s rstate, e int) bool { return contains(s.co, e) || contains(s.ign, e) }

// consistentY checks the Y-derivation ordering: every FD of fcy has its
// rhs in yDer, all its bag-local lhs attributes in Y, and its yDer lhs
// attributes strictly earlier than its rhs.
func (c *rctx) consistentY(fcy, yGen, yDer []int) bool {
	for _, fe := range fcy {
		fi := c.fdOf[fe]
		rp := pos(yDer, c.rhs[fi])
		if rp < 0 {
			return false
		}
		for _, b := range c.lhs[fi] {
			if bp := pos(yDer, b); bp >= 0 && bp >= rp {
				return false
			}
		}
	}
	return true
}

// rLeafStates enumerates all relevance states of a bag.
func (c *rctx) rLeafStates(dst []solver.Out[string], bag []int) []solver.Out[string] {
	attrs, fds := c.splitBag(bag)
	// Assign each attribute one of the four roles.
	roles := make([]int, len(attrs)) // 0 generator, 1 y-derived, 2 co, 3 ignored
	var assign func(i int)
	assign = func(i int) {
		if i < len(attrs) {
			for r := 0; r < 4; r++ {
				e := attrs[i]
				if r == 0 && !c.hyp.Has(e) {
					continue // generators must be hypotheses
				}
				if r == 3 && c.man.Has(e) {
					continue // manifestations may not be ignored
				}
				roles[i] = r
				assign(i + 1)
			}
			return
		}
		var yGen, yDerSet, coSet, ign []int
		for j, e := range attrs {
			switch roles[j] {
			case 0:
				yGen = append(yGen, e)
			case 1:
				yDerSet = append(yDerSet, e)
			case 2:
				coSet = append(coSet, e)
			default:
				ign = append(ign, e)
			}
		}
		mOut := false
		for _, e := range coSet {
			if c.man.Has(e) {
				mOut = true
			}
		}
		permute(yDerSet, func(yDer []int) {
			yDerCopy := append([]int(nil), yDer...)
			permute(coSet, func(co []int) {
				coCopy := append([]int(nil), co...)
				c.enumerateFDs(bag, fds, yGen, yDerCopy, coCopy, ign, mOut, &dst)
			})
		})
	}
	assign(0)
	return dst
}

// enumerateFDs completes a leaf state by choosing the role of every bag
// FD and deriving FY, dcy and dc.
func (c *rctx) enumerateFDs(bag, fds, yGen, yDer, co, ign []int, mOut bool, out *[]solver.Out[string]) {
	y := append(append([]int(nil), yGen...), yDer...)
	sort.Ints(y)
	// FY is determined: FDs with rhs outside Y witnessed by a bag
	// attribute outside Y.
	var fy []int
	for _, fe := range fds {
		fi := c.fdOf[fe]
		if contains(y, c.rhs[fi]) {
			continue
		}
		for _, b := range c.lhs[fi] {
			if contains(co, b) || contains(ign, b) {
				fy = append(fy, fe)
				break
			}
		}
	}
	// Role choice per FD: 0 unused, 1 used-for-Y, 2 used-for-Co.
	var candY, candCo []int
	for _, fe := range fds {
		fi := c.fdOf[fe]
		if contains(yDer, c.rhs[fi]) && c.lhsUsableForY(fi, yGen, yDer, co, ign) {
			candY = append(candY, fe)
		}
		if contains(co, c.rhs[fi]) {
			candCo = append(candCo, fe)
		}
	}
	subsets(candY, func(fcy, _ []int) {
		if !c.consistentY(fcy, yGen, yDer) {
			return
		}
		fcyCopy := append([]int(nil), fcy...)
		var dcy []int
		for _, fe := range fcyCopy {
			dcy = insertDedupSorted(dcy, c.rhs[c.fdOf[fe]])
		}
		subsets(candCo, func(fc, _ []int) {
			if !c.ctx.consistent(fc, co) {
				return
			}
			if !c.lhsAvoidsIgnored(fc, ign) {
				return
			}
			var dc []int
			for _, fe := range fc {
				dc = insertDedupSorted(dc, c.rhs[c.fdOf[fe]])
			}
			st := rstate{
				yGen: append([]int(nil), yGen...),
				yDer: append([]int(nil), yDer...),
				dcy:  dcy,
				fcy:  fcyCopy,
				co:   append([]int(nil), co...),
				ign:  append([]int(nil), ign...),
				dc:   dc,
				fc:   append([]int(nil), fc...),
				fy:   append([]int(nil), fy...),
				mOut: mOut,
			}
			*out = append(*out, st.out())
		})
	})
}

// lhsUsableForY reports whether all bag-local lhs attributes of FD fi lie
// inside Y (a Y-derivation may only consume Y members).
func (c *rctx) lhsUsableForY(fi int, yGen, yDer, co, ign []int) bool {
	for _, b := range c.lhs[fi] {
		if contains(co, b) || contains(ign, b) {
			return false
		}
	}
	return true
}

// lhsAvoidsIgnored reports that no used-for-Co FD consumes an ignored
// attribute (ignored attributes are never derived).
func (c *rctx) lhsAvoidsIgnored(fc []int, ign []int) bool {
	for _, fe := range fc {
		for _, b := range c.lhs[c.fdOf[fe]] {
			if contains(ign, b) {
				return false
			}
		}
	}
	return true
}

// rIntroduce handles attribute and FD introduction.
func (c *rctx) rIntroduce(dst []solver.Out[string], bag []int, elem int, childKey string) []solver.Out[string] {
	child := decodeR(childKey)
	if c.isAttr[elem] {
		return c.rIntroduceAttr(dst, bag, elem, child)
	}
	return c.rIntroduceFD(dst, elem, child)
}

func (c *rctx) rIntroduceAttr(dst []solver.Out[string], bag []int, elem int, child rstate) []solver.Out[string] {
	_, fds := c.splitBag(bag)
	y := append(append([]int(nil), child.yGen...), child.yDer...)
	sort.Ints(y)

	// dischargeFY recomputes FY for a new non-Y attribute elem.
	dischargeFY := func(fy []int) []int {
		res := append([]int(nil), fy...)
		for _, fe := range fds {
			fi := c.fdOf[fe]
			if !contains(y, c.rhs[fi]) && contains(c.lhs[fi], elem) {
				res = insertDedupSorted(res, fe)
			}
		}
		return res
	}
	// violatesYUse reports that a used-for-Y FD would consume the new
	// non-Y attribute.
	violatesYUse := func() bool {
		for _, fe := range child.fcy {
			if contains(c.lhs[c.fdOf[fe]], elem) {
				return true
			}
		}
		return false
	}
	// violatesCoUse reports that a used-for-Co FD would consume the new
	// attribute without ordering (for ignored attributes).
	violatesCoUse := func() bool {
		for _, fe := range child.fc {
			if contains(c.lhs[c.fdOf[fe]], elem) {
				return true
			}
		}
		return false
	}

	// Role: generator.
	if c.hyp.Has(elem) {
		s := child
		s.yGen = insertSorted(child.yGen, elem)
		dst = append(dst, s.out())
	}
	// Role: y-derived — insert at every order position.
	for p := 0; p <= len(child.yDer); p++ {
		yDer := make([]int, 0, len(child.yDer)+1)
		yDer = append(yDer, child.yDer[:p]...)
		yDer = append(yDer, elem)
		yDer = append(yDer, child.yDer[p:]...)
		if !c.consistentY(child.fcy, child.yGen, yDer) {
			continue
		}
		s := child
		s.yDer = yDer
		dst = append(dst, s.out())
	}
	// Role: co — insert at every order position.
	if !violatesYUse() {
		for p := 0; p <= len(child.co); p++ {
			co := make([]int, 0, len(child.co)+1)
			co = append(co, child.co[:p]...)
			co = append(co, elem)
			co = append(co, child.co[p:]...)
			if !c.ctx.consistent(child.fc, co) {
				continue
			}
			s := child
			s.co = co
			s.fy = dischargeFY(child.fy)
			s.mOut = child.mOut || c.man.Has(elem)
			dst = append(dst, s.out())
		}
	}
	// Role: ignored.
	if !c.man.Has(elem) && !violatesYUse() && !violatesCoUse() {
		s := child
		s.ign = insertSorted(child.ign, elem)
		s.fy = dischargeFY(child.fy)
		dst = append(dst, s.out())
	}
	return dst
}

func (c *rctx) rIntroduceFD(dst []solver.Out[string], elem int, child rstate) []solver.Out[string] {
	fi, ok := c.fdOf[elem]
	if !ok {
		return dst
	}
	rhs := c.rhs[fi]
	switch {
	case contains(child.yGen, rhs) || contains(child.yDer, rhs):
		// Unused.
		dst = append(dst, child.out())
		// Used for the Y-derivation.
		if contains(child.yDer, rhs) && !contains(child.dcy, rhs) &&
			c.lhsInY(fi, child) && c.consistentY([]int{elem}, child.yGen, child.yDer) {
			s := child
			s.fcy = insertSorted(child.fcy, elem)
			s.dcy = insertSorted(child.dcy, rhs)
			dst = append(dst, s.out())
		}
	case contains(child.co, rhs) || contains(child.ign, rhs):
		discharge := func() []int {
			for _, b := range c.lhs[fi] {
				if c.inCo(child, b) {
					return insertDedupSorted(append([]int(nil), child.fy...), elem)
				}
			}
			return child.fy
		}
		// Unused.
		s3 := child
		s3.fy = discharge()
		dst = append(dst, s3.out())
		// Used for the Co-derivation (only onto scheduled attributes).
		if contains(child.co, rhs) && !contains(child.dc, rhs) &&
			c.ctx.consistent([]int{elem}, child.co) && c.lhsAvoidsIgnored([]int{elem}, child.ign) {
			s2 := child
			s2.fy = discharge()
			s2.fc = insertSorted(child.fc, elem)
			s2.dc = insertSorted(child.dc, rhs)
			dst = append(dst, s2.out())
		}
	default:
		// The bag discipline guarantees rhs is present; unreachable.
		return dst
	}
	return dst
}

// lhsInY reports that no bag-external knowledge is needed: all bag-local
// lhs attributes of fi are in Y.
func (c *rctx) lhsInY(fi int, s rstate) bool {
	for _, b := range c.lhs[fi] {
		if c.inCo(s, b) {
			return false
		}
	}
	return true
}

// rForget handles attribute and FD removal.
func (c *rctx) rForget(dst []solver.Out[string], elem int, childKey string) []solver.Out[string] {
	child := decodeR(childKey)
	if c.isAttr[elem] {
		switch {
		case contains(child.yGen, elem):
			s := child
			s.yGen = removeVal(child.yGen, elem)
			return append(dst, s.out())
		case contains(child.yDer, elem):
			if !contains(child.dcy, elem) {
				return dst
			}
			s := child
			s.yDer = removeVal(child.yDer, elem)
			s.dcy = removeVal(child.dcy, elem)
			return append(dst, s.out())
		case contains(child.co, elem):
			if !contains(child.dc, elem) {
				return dst
			}
			s := child
			s.co = removeVal(child.co, elem)
			s.dc = removeVal(child.dc, elem)
			return append(dst, s.out())
		default:
			s := child
			s.ign = removeVal(child.ign, elem)
			return append(dst, s.out())
		}
	}
	fi, ok := c.fdOf[elem]
	if !ok {
		return dst
	}
	if c.inY(child, c.rhs[fi]) {
		s := child
		s.fcy = removeVal(child.fcy, elem)
		return append(dst, s.out())
	}
	if !contains(child.fy, elem) {
		return nil // closedness of Y never verified for this FD
	}
	s := child
	s.fy = removeVal(child.fy, elem)
	s.fc = removeVal(child.fc, elem)
	return append(dst, s.out())
}

// rBranch merges two child states with identical partitions and used-FD
// sets (the Figure 6 branch rule plus its Y-side mirror).
func (c *rctx) rBranch(dst []solver.Out[string], k1, k2 string) []solver.Out[string] {
	s1, s2 := decodeR(k1), decodeR(k2)
	if !equalInts(s1.yGen, s2.yGen) || !equalInts(s1.yDer, s2.yDer) ||
		!equalInts(s1.co, s2.co) || !equalInts(s1.ign, s2.ign) ||
		!equalInts(s1.fcy, s2.fcy) || !equalInts(s1.fc, s2.fc) {
		return dst
	}
	if !uniqueMerge(s1.dc, s2.dc, c.rhsSet(s1.fc)) || !uniqueMerge(s1.dcy, s2.dcy, c.rhsSet(s1.fcy)) {
		return dst
	}
	s := s1
	s.fy = unionSorted(s1.fy, s2.fy)
	s.dc = unionSorted(s1.dc, s2.dc)
	s.dcy = unionSorted(s1.dcy, s2.dcy)
	s.mOut = s1.mOut || s2.mOut
	return append(dst, s.out())
}

func (c *rctx) rhsSet(fes []int) map[int]bool {
	out := map[int]bool{}
	for _, fe := range fes {
		out[c.rhs[c.fdOf[fe]]] = true
	}
	return out
}

// uniqueMerge checks that the intersection of the two derived sets is
// exactly the set derived by shared bag FDs.
func uniqueMerge(dc1, dc2 []int, fromFC map[int]bool) bool {
	inter := map[int]bool{}
	for _, e := range dc1 {
		if contains(dc2, e) {
			inter[e] = true
		}
	}
	if len(inter) != len(fromFC) {
		return false
	}
	for e := range inter {
		if !fromFC[e] {
			return false
		}
	}
	return true
}

func unionSorted(a, b []int) []int {
	out := append([]int(nil), a...)
	for _, e := range b {
		out = insertDedupSorted(out, e)
	}
	return out
}

// rAccepting checks the final condition at a node whose subtree/envelope
// is the entire structure.
func (c *rctx) rAccepting(bag []int, key string, aElem int) bool {
	s := decodeR(key)
	if !c.hyp.Has(aElem) {
		return false
	}
	// a is the underived seed of the Co order.
	if !contains(s.co, aElem) || contains(s.dc, aElem) {
		return false
	}
	// Everything scheduled is derived (except a); everything in yDer too.
	wantDC := append([]int(nil), s.co...)
	sort.Ints(wantDC)
	wantDC = removeVal(wantDC, aElem)
	if !equalInts(s.dc, wantDC) {
		return false
	}
	wantDCY := append([]int(nil), s.yDer...)
	sort.Ints(wantDCY)
	if !equalInts(s.dcy, wantDCY) {
		return false
	}
	// Closedness fully verified.
	y := append(append([]int(nil), s.yGen...), s.yDer...)
	sort.Ints(y)
	_, fds := c.splitBag(bag)
	var wantFY []int
	for _, fe := range fds {
		if !contains(y, c.rhs[c.fdOf[fe]]) {
			wantFY = append(wantFY, fe)
		}
	}
	if !equalInts(s.fy, wantFY) {
		return false
	}
	// Some manifestation lies outside Y (M ⊄ clos(Y₀)).
	return s.mOut
}

// DecideRelevant reports whether hypothesis a (a schema attribute index)
// belongs to some minimal explanation of the manifestations man from the
// hypotheses hyp (attribute-index bit sets).
func (in *Instance) DecideRelevant(hyp, man *bitset.Set, a int) (bool, error) {
	c := &rctx{ctx: in.ctx, hyp: attrsToElems(in.ctx, hyp), man: attrsToElems(in.ctx, man)}
	if a < 0 || a >= c.s.NumAttrs() {
		return false, fmt.Errorf("primality: attribute %d out of range", a)
	}
	if !hyp.Has(a) {
		return false, nil
	}
	aElem := c.attElem[a]
	d := in.raw.Clone()
	node := d.NodeWithElem(aElem)
	if node < 0 {
		return false, fmt.Errorf("primality: attribute %s not in any bag", c.s.AttrName(a))
	}
	d.ReRoot(node)
	nice, err := tree.NormalizeNice(d, tree.NiceOptions{})
	if err != nil {
		return false, err
	}
	if err := c.checkDiscipline(nice); err != nil {
		return false, err
	}
	return solver.Decide(context.Background(), nice, relevance{c: c, aElem: aElem})
}

// EnumerateRelevant returns all relevant hypotheses via the Section 5.3
// two-pass scheme (bottom-up solve plus top-down solve↓, reading each
// hypothesis off a leaf whose envelope is the whole tree).
func (in *Instance) EnumerateRelevant(hyp, man *bitset.Set) (*bitset.Set, error) {
	c := &rctx{ctx: in.ctx, hyp: attrsToElems(in.ctx, hyp), man: attrsToElems(in.ctx, man)}
	attrElems := bitset.New(c.st.Size())
	for _, e := range c.attElem {
		attrElems.Add(e)
	}
	nice, err := tree.NormalizeNice(in.raw, tree.NiceOptions{LeafElems: attrElems, BranchGuard: true})
	if err != nil {
		return nil, err
	}
	if err := c.checkDiscipline(nice); err != nil {
		return nil, err
	}
	prob := relevance{c: c, aElem: -1}
	up, err := solver.Up(context.Background(), nice, prob, solver.Decision{})
	if err != nil {
		return nil, err
	}
	down, err := solver.Down(context.Background(), nice, prob, solver.Decision{}, up)
	if err != nil {
		return nil, err
	}
	leafOf := map[int]int{}
	for _, l := range nice.Leaves() {
		for _, e := range nice.Nodes[l].Bag {
			if _, ok := leafOf[e]; !ok {
				leafOf[e] = l
			}
		}
	}
	bags, err := nice.SortedBags()
	if err != nil {
		return nil, err
	}
	relevant := bitset.New(c.s.NumAttrs())
	for a := 0; a < c.s.NumAttrs(); a++ {
		if !hyp.Has(a) {
			continue
		}
		leaf, ok := leafOf[c.attElem[a]]
		if !ok {
			return nil, fmt.Errorf("primality: attribute %s missing from every leaf bag", c.s.AttrName(a))
		}
		bag := bags[leaf]
		for _, key := range down[leaf].Order {
			if c.rAccepting(bag, key, c.attElem[a]) {
				relevant.Add(a)
				break
			}
		}
	}
	return relevant, nil
}

func attrsToElems(c *ctx, attrs *bitset.Set) *bitset.Set {
	out := bitset.New(c.st.Size())
	attrs.ForEach(func(a int) bool {
		if a < len(c.attElem) {
			out.Add(c.attElem[a])
		}
		return true
	})
	return out
}

// RelevantBruteForce is the exponential reference oracle: a belongs to a
// minimal explanation iff some Y₀ ⊆ H\{a} has M ⊆ clos(Y₀∪{a}) and
// M ⊄ clos(Y₀). Beyond 24 attributes it returns schema.ErrTooLarge.
func RelevantBruteForce(s *schema.Schema, hyp, man *bitset.Set, a int) (bool, error) {
	if !hyp.Has(a) {
		return false, nil
	}
	n := s.NumAttrs()
	if n > 24 {
		return false, fmt.Errorf("%w: brute-force relevance limited to 24 attributes, got %d", schema.ErrTooLarge, n)
	}
	candidates := hyp.Clone()
	candidates.Remove(a)
	elems := candidates.Elems()
	for mask := uint64(0); mask < 1<<uint(len(elems)); mask++ {
		y0 := bitset.New(n)
		for i, e := range elems {
			if mask&(1<<uint(i)) != 0 {
				y0.Add(e)
			}
		}
		if man.SubsetOf(s.Closure(y0)) {
			continue
		}
		withA := y0.Clone()
		withA.Add(a)
		if man.SubsetOf(s.Closure(withA)) {
			return true, nil
		}
	}
	return false, nil
}
