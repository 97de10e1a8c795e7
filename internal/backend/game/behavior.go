package game

import (
	"fmt"
	"slices"

	"repro/internal/faultinject"
)

// behavior is a hash-consed game position: the rank-limited
// model-checking behavior of a structure with a distinguished tuple of
// m (not necessarily distinct) elements and nsets chosen sets. The
// atomic layer records everything quantifier-free formulas can observe
// on the tuple; the child layers record, down to the remaining rank,
// which behaviors one more quantifier move can reach. Two subgames with
// equal behaviors are indistinguishable by any MSO formula of
// quantifier depth ≤ rank, which is what makes interning sound.
//
// A position is identified by its rank, its atomic id and its child
// ids (intern). Children are always interned before their parent, so
// equal identities mean equal behavior trees.
type behavior struct {
	rank int     // remaining quantifier moves
	atom int     // id of a in the evaluator's atomic table
	a    *atomic // the quantifier-free layer, shared by every position that has it

	// Children exist only at rank > 0; all have rank-1.
	pointAt  []int // per position i: behavior after pointing at tuple[i] (tuple grows to m+1)
	pointNew []int // behaviors after pointing at some element equal to NO tuple element; sorted, deduped
	sets     []int // behaviors after choosing one more set; sorted, deduped (none unless the formula has a set quantifier)
}

// atomic is the quantifier-free layer of a position over an m-tuple. It
// is interned on its own (internAtomic), so positions that differ only
// in rank or children, such as a behavior and its truncation, share it.
type atomic struct {
	m    int
	tab  []bool   // eq, then each rels table, end to end
	eq   []bool   // m×m: tuple[i] == tuple[j], row-major
	rels [][]bool // per signature predicate: m^arity truth table, odometer order
	mems []uint64 // per chosen set: membership bitmask over tuple positions
}

func (a *atomic) nsets() int { return len(a.mems) }

// posPair maps one combined tuple position onto the operand positions
// of a composition: x/y are positions in the left/right behavior, -1
// when the element is private to the other side. Shared elements are
// always both-mapped — the invariant composition soundness rests on.
type posPair struct{ x, y int }

// layer readies the atomic scratch for a candidate over an m-tuple: it
// returns the cleared equality table and one cleared truth table per
// predicate, and empties amems. The caller fills them, then calls
// internAtomic before any recursive call reuses the scratch.
func (e *evaluator) layer(m int) (eq []bool, rels [][]bool) {
	size := m * m
	for _, p := range e.preds {
		size += ipow(m, p.Arity)
	}
	if cap(e.atab) < size {
		e.atab = make([]bool, size)
	}
	e.atab = e.atab[:size]
	clear(e.atab)
	off := m * m
	for pi, p := range e.preds {
		n := ipow(m, p.Arity)
		e.arels[pi] = e.atab[off : off+n]
		off += n
	}
	e.amems = e.amems[:0]
	return e.atab[:m*m], e.arels
}

// internAtomic returns the id of the atomic layer in the scratch (see
// layer), copying it into a new atomic only on a miss.
func (e *evaluator) internAtomic(m int) int {
	h := hashBools(mix(hashSeed, uint64(m)), e.atab)
	h = mix(h, uint64(len(e.amems)))
	for _, w := range e.amems {
		h = mix(h, w)
	}
	for id := e.atomIDs.first(h); id >= 0; id = e.atomIDs.next[id] {
		if a := e.atoms[id]; a.m == m && slices.Equal(a.tab, e.atab) && slices.Equal(a.mems, e.amems) {
			return id
		}
	}
	a := &atomic{m: m, tab: slices.Clone(e.atab), mems: slices.Clone(e.amems)}
	a.eq = a.tab[: m*m : m*m]
	a.rels = make([][]bool, len(e.preds))
	off := m * m
	for pi, r := range e.arels {
		a.rels[pi] = a.tab[off : off+len(r) : off+len(r)]
		off += len(r)
	}
	e.atoms = append(e.atoms, a)
	return e.atomIDs.add(h)
}

// intern returns the id of the position (rank, atom, children), looked
// up before anything is built. Only a new position allocates, charges
// the game-positions budget and passes the game.memo fault point. The
// child lists are copied, so callers may pass slices of the stack.
func (e *evaluator) intern(rank, atom int, pointAt, pointNew, sets []int) (int, error) {
	h := mix(mix(hashSeed, uint64(rank)), uint64(atom))
	h = hashInts(hashInts(hashInts(h, pointAt), pointNew), sets)
	for id := e.posIDs.first(h); id >= 0; id = e.posIDs.next[id] {
		b := e.nodes[id]
		if b.rank == rank && b.atom == atom && slices.Equal(b.pointAt, pointAt) &&
			slices.Equal(b.pointNew, pointNew) && slices.Equal(b.sets, sets) {
			return id, nil
		}
	}
	if err := faultinject.Check("game.memo"); err != nil {
		return 0, err
	}
	if err := e.budget.AddGamePositions(1); err != nil {
		return 0, err
	}
	e.nodes = append(e.nodes, &behavior{
		rank:     rank,
		atom:     atom,
		a:        e.atoms[atom],
		pointAt:  e.carve(pointAt),
		pointNew: e.carve(pointNew),
		sets:     e.carve(sets),
	})
	return e.posIDs.add(h), nil
}

// take returns n fresh ints from the evaluator's current chunk, with
// the capacity cut at n, or nil when n is 0: child lists and bag tuples
// live there instead of in an allocation each.
func (e *evaluator) take(n int) []int {
	if n == 0 {
		return nil
	}
	if cap(e.chunk)-len(e.chunk) < n {
		e.chunk = make([]int, 0, max(chunkInts, n))
	}
	i := len(e.chunk)
	e.chunk = e.chunk[:i+n]
	return e.chunk[i : i+n : i+n]
}

// carve returns a copy of xs in ints from take.
func (e *evaluator) carve(xs []int) []int {
	out := e.take(len(xs))
	copy(out, xs)
	return out
}

// chunkInts is the size of one carving chunk: 8 KiB, the child lists
// of a few hundred positions.
const chunkInts = 1024

// sortTop sorts and dedups the stack above from in place, dropping the
// duplicates: a pointNew or sets list just pushed becomes canonical.
func (e *evaluator) sortTop(from int) {
	top := e.stack[from:]
	slices.Sort(top)
	e.stack = e.stack[:from+len(slices.Compact(top))]
}

// expand gates every direct, compose and project call: context poll,
// fault point.
func (e *evaluator) expand() error {
	if err := e.poll(); err != nil {
		return err
	}
	return faultinject.Check("game.expand")
}

func (e *evaluator) poll() error {
	e.steps++
	if e.steps&255 == 0 {
		if err := e.ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// direct brute-forces the behavior of the structure induced by the
// (distinct elements of the) tuple — used at leaves and introduce
// nodes, where the domain is one bag of at most w+1 elements. mems
// gives the membership masks of the sets already chosen. Because the
// whole domain sits in the tuple, pointNew is always empty here, and
// the atomic layer and rank determine the behavior (directMemo).
func (e *evaluator) direct(tuple []int, mems []uint64, rank int) (int, error) {
	if err := e.expand(); err != nil {
		return 0, err
	}
	m := len(tuple)
	eq, rels := e.layer(m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			eq[i*m+j] = tuple[i] == tuple[j]
		}
	}
	for pi, p := range e.preds {
		idx, args := e.idx[:p.Arity], e.args[:p.Arity]
		clear(idx)
		for flat := range rels[pi] {
			for i := range idx {
				args[i] = tuple[idx[i]]
			}
			rels[pi][flat] = e.st.HasIdx(pi, args)
			odometer(idx, m)
		}
	}
	e.amems = append(e.amems, mems...)
	atom := e.internAtomic(m)
	key := [2]int{rank, atom}
	if id, ok := e.directMemo[key]; ok {
		return id, nil
	}
	base := len(e.stack)
	sets := base
	if rank > 0 {
		// Point moves. Every domain element equals some tuple element, so
		// all point moves land in pointAt and pointNew stays empty.
		for i := 0; i < m; i++ {
			t, k := len(e.stack), len(e.masks)
			e.stack = append(append(e.stack, tuple...), tuple[i])
			for _, mask := range mems {
				if mask&(1<<uint(i)) != 0 {
					mask |= 1 << uint(m)
				}
				e.masks = append(e.masks, mask)
			}
			cid, err := e.direct(e.stack[t:], e.masks[k:], rank-1)
			if err != nil {
				return 0, err
			}
			e.stack, e.masks = append(e.stack[:t], cid), e.masks[:k]
		}
		sets = len(e.stack)
		// Set moves, only for a formula that can make one: one child per
		// subset of the domain. Enumerate over representative positions
		// (first occurrence of each element) and spread each choice to
		// the positions that repeat the element.
		if e.setMoves {
			reps := 0
			for i, el := range tuple {
				if indexOf(tuple[:i], el) < 0 {
					reps++
				}
			}
			for mask := 0; mask < 1<<uint(reps); mask++ {
				var pmask uint64
				r := 0
				for i, el := range tuple {
					if first := indexOf(tuple[:i], el); first >= 0 {
						pmask |= (pmask >> uint(first) & 1) << uint(i)
					} else {
						pmask |= uint64(mask>>uint(r)&1) << uint(i)
						r++
					}
				}
				k := len(e.masks)
				e.masks = append(append(e.masks, mems...), pmask)
				cid, err := e.direct(tuple, e.masks[k:], rank-1)
				if err != nil {
					return 0, err
				}
				e.stack, e.masks = append(e.stack, cid), e.masks[:k]
			}
			e.sortTop(sets)
		}
	}
	id, err := e.intern(rank, atom, e.stack[base:sets], nil, e.stack[sets:])
	e.stack = e.stack[:base]
	if err != nil {
		return 0, err
	}
	e.directMemo[key] = id
	return id, nil
}

// compose glues the behaviors of two structures that overlap exactly in
// their shared tuple elements (both-mapped positions of pm). Soundness
// rests on two consequences of tree-decomposition connectivity: no
// relation tuple spans both private sides, and elements private to one
// side never equal elements private to the other.
func (e *evaluator) compose(x, y int, pm []posPair) (int, error) {
	if err := e.expand(); err != nil {
		return 0, err
	}
	e.keyBuf = e.keyBuf[:0]
	for _, pp := range pm {
		e.keyBuf = append(e.keyBuf, pp.x, pp.y)
	}
	key := [3]int{x, y, e.maps.intern(e.keyBuf)}
	if id, ok := e.composeMemo[key]; ok {
		return id, nil
	}
	bx, by := e.nodes[x], e.nodes[y]
	ax, ay := bx.a, by.a
	if bx.rank != by.rank || ax.nsets() != ay.nsets() {
		return 0, fmt.Errorf("game: internal: compose rank/nsets mismatch (%d/%d vs %d/%d)", bx.rank, ax.nsets(), by.rank, ay.nsets())
	}
	m := len(pm)
	eq, rels := e.layer(m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			switch {
			case pm[i].x >= 0 && pm[j].x >= 0:
				eq[i*m+j] = ax.eq[pm[i].x*ax.m+pm[j].x]
			case pm[i].y >= 0 && pm[j].y >= 0:
				eq[i*m+j] = ay.eq[pm[i].y*ay.m+pm[j].y]
			}
		}
	}
	for pi, p := range e.preds {
		idx := e.idx[:p.Arity]
		clear(idx)
		for flat := range rels[pi] {
			allX, allY := true, true
			for _, pos := range idx {
				if pm[pos].x < 0 {
					allX = false
				}
				if pm[pos].y < 0 {
					allY = false
				}
			}
			if allX {
				sub := 0
				for _, pos := range idx {
					sub = sub*ax.m + pm[pos].x
				}
				rels[pi][flat] = ax.rels[pi][sub]
			} else if allY {
				sub := 0
				for _, pos := range idx {
					sub = sub*ay.m + pm[pos].y
				}
				rels[pi][flat] = ay.rels[pi][sub]
			}
			odometer(idx, m)
		}
	}
	for s := range ax.mems {
		var mask uint64
		for i, pp := range pm {
			var bit bool
			if pp.x >= 0 {
				bit = ax.mems[s]&(1<<uint(pp.x)) != 0
			} else {
				bit = ay.mems[s]&(1<<uint(pp.y)) != 0
			}
			if bit {
				mask |= 1 << uint(i)
			}
		}
		e.amems = append(e.amems, mask)
	}
	atom := e.internAtomic(m)
	base := len(e.stack)
	fresh, sets := base, base
	if bx.rank > 0 {
		// Point moves at an existing position: both sides advance when the
		// element is shared; a side blind to the element loses one rank
		// (truncate) and leaves the new position unmapped on its side.
		for _, pp := range pm {
			var err error
			switch {
			case pp.x >= 0 && pp.y >= 0:
				err = e.pushCompose(bx.pointAt[pp.x], by.pointAt[pp.y], pm, posPair{ax.m, ay.m})
			case pp.x >= 0:
				var ty int
				if ty, err = e.truncate(y); err == nil {
					err = e.pushCompose(bx.pointAt[pp.x], ty, pm, posPair{ax.m, -1})
				}
			default:
				var tx int
				if tx, err = e.truncate(x); err == nil {
					err = e.pushCompose(tx, by.pointAt[pp.y], pm, posPair{-1, ay.m})
				}
			}
			if err != nil {
				return 0, err
			}
		}
		// Point moves to fresh elements: private to one side, invisible to
		// the other.
		fresh = len(e.stack)
		for _, cx := range bx.pointNew {
			ty, err := e.truncate(y)
			if err == nil {
				err = e.pushCompose(cx, ty, pm, posPair{ax.m, -1})
			}
			if err != nil {
				return 0, err
			}
		}
		for _, cy := range by.pointNew {
			tx, err := e.truncate(x)
			if err == nil {
				err = e.pushCompose(tx, cy, pm, posPair{-1, ay.m})
			}
			if err != nil {
				return 0, err
			}
		}
		e.sortTop(fresh)
		// Set moves: any pair of side-local set choices agreeing on the
		// shared positions glues to a combined set — membership on tuple
		// positions is pinned by the behaviors, and shared elements are
		// always tuple positions, so agreement on both-mapped bits is
		// exactly agreement on the shared elements.
		sets = len(e.stack)
		s := ax.nsets()
		for _, cxid := range bx.sets {
			cx := e.nodes[cxid].a
			for _, cyid := range by.sets {
				cy := e.nodes[cyid].a
				ok := true
				for _, pp := range pm {
					if pp.x < 0 || pp.y < 0 {
						continue
					}
					if (cx.mems[s]&(1<<uint(pp.x)) != 0) != (cy.mems[s]&(1<<uint(pp.y)) != 0) {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				cid, err := e.compose(cxid, cyid, pm)
				if err != nil {
					return 0, err
				}
				e.stack = append(e.stack, cid)
			}
		}
		e.sortTop(sets)
	}
	id, err := e.intern(bx.rank, atom, e.stack[base:fresh], e.stack[fresh:sets], e.stack[sets:])
	e.stack = e.stack[:base]
	if err != nil {
		return 0, err
	}
	e.composeMemo[key] = id
	return id, nil
}

// pushCompose composes x and y under pm extended by next, the position
// a point move appends, and pushes the result onto the stack.
func (e *evaluator) pushCompose(x, y int, pm []posPair, next posPair) error {
	p := len(e.pairs)
	e.pairs = append(append(e.pairs, pm...), next)
	id, err := e.compose(x, y, e.pairs[p:])
	e.pairs = e.pairs[:p]
	if err != nil {
		return err
	}
	e.stack = append(e.stack, id)
	return nil
}

// truncate lowers a behavior's rank by one: same atomic layer, children
// truncated in turn (none at the new rank 0). Composition uses it when
// one side cannot see a move the other side makes.
func (e *evaluator) truncate(id int) (int, error) {
	if v, ok := e.truncMemo[id]; ok {
		return v, nil
	}
	b := e.nodes[id]
	if b.rank == 0 {
		return 0, fmt.Errorf("game: internal: truncate at rank 0")
	}
	base := len(e.stack)
	fresh, sets := base, base
	if b.rank > 1 {
		if err := e.pushTruncated(b.pointAt); err != nil {
			return 0, err
		}
		fresh = len(e.stack)
		if err := e.pushTruncated(b.pointNew); err != nil {
			return 0, err
		}
		e.sortTop(fresh)
		sets = len(e.stack)
		if err := e.pushTruncated(b.sets); err != nil {
			return 0, err
		}
		e.sortTop(sets)
	}
	tid, err := e.intern(b.rank-1, b.atom, e.stack[base:fresh], e.stack[fresh:sets], e.stack[sets:])
	e.stack = e.stack[:base]
	if err != nil {
		return 0, err
	}
	e.truncMemo[id] = tid
	return tid, nil
}

// pushTruncated pushes the truncation of each of ids onto the stack.
func (e *evaluator) pushTruncated(ids []int) error {
	for _, c := range ids {
		tc, err := e.truncate(c)
		if err != nil {
			return err
		}
		e.stack = append(e.stack, tc)
	}
	return nil
}

// project forgets tuple position p: the element stays in the structure
// but stops being distinguished. Pointing at it afterwards is a move to
// a fresh element — unless it duplicates a surviving position, in which
// case that pointAt child already covers the move.
func (e *evaluator) project(id, p int) (int, error) {
	if err := e.expand(); err != nil {
		return 0, err
	}
	key := [2]int{id, p}
	if v, ok := e.projMemo[key]; ok {
		return v, nil
	}
	b := e.nodes[id]
	a := b.a
	m := a.m - 1
	old := func(i int) int {
		if i < p {
			return i
		}
		return i + 1
	}
	eq, rels := e.layer(m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			eq[i*m+j] = a.eq[old(i)*a.m+old(j)]
		}
	}
	for pi, pr := range e.preds {
		idx := e.idx[:pr.Arity]
		clear(idx)
		for flat := range rels[pi] {
			sub := 0
			for _, pos := range idx {
				sub = sub*a.m + old(pos)
			}
			rels[pi][flat] = a.rels[pi][sub]
			odometer(idx, m)
		}
	}
	for _, mask := range a.mems {
		low := mask & (1<<uint(p) - 1)
		high := (mask >> uint(p+1)) << uint(p)
		e.amems = append(e.amems, low|high)
	}
	atom := e.internAtomic(m)
	base := len(e.stack)
	fresh, sets := base, base
	if b.rank > 0 {
		for i := 0; i < m; i++ {
			if err := e.pushProjected(b.pointAt[old(i)], p); err != nil {
				return 0, err
			}
		}
		fresh = len(e.stack)
		for _, c := range b.pointNew {
			if err := e.pushProjected(c, p); err != nil {
				return 0, err
			}
		}
		dup := false
		for j := 0; j < a.m; j++ {
			if j != p && a.eq[p*a.m+j] {
				dup = true
				break
			}
		}
		if !dup {
			if err := e.pushProjected(b.pointAt[p], p); err != nil {
				return 0, err
			}
		}
		e.sortTop(fresh)
		sets = len(e.stack)
		for _, c := range b.sets {
			if err := e.pushProjected(c, p); err != nil {
				return 0, err
			}
		}
		e.sortTop(sets)
	}
	nid, err := e.intern(b.rank, atom, e.stack[base:fresh], e.stack[fresh:sets], e.stack[sets:])
	e.stack = e.stack[:base]
	if err != nil {
		return 0, err
	}
	e.projMemo[key] = nid
	return nid, nil
}

// pushProjected pushes project(id, p) onto the stack.
func (e *evaluator) pushProjected(id, p int) error {
	c, err := e.project(id, p)
	if err != nil {
		return err
	}
	e.stack = append(e.stack, c)
	return nil
}

// ---- interning ----

// chains indexes interned values by a 64-bit hash: head maps a hash to
// the newest id that has it, and next links each id to the previous one
// with the same hash (-1 ends a chain). Equal hashes prove nothing, so
// every lookup compares the candidates it walks.
type chains struct {
	head map[uint64]int
	next []int
}

// first returns the newest id filed under h, or -1.
func (c *chains) first(h uint64) int {
	if id, ok := c.head[h]; ok {
		return id
	}
	return -1
}

// add files the next id, len(next), under h and returns it.
func (c *chains) add(h uint64) int {
	id := len(c.next)
	prev, ok := c.head[h]
	if !ok {
		prev = -1
	}
	if c.head == nil {
		c.head = map[uint64]int{}
	}
	c.next = append(c.next, prev)
	c.head[h] = id
	return id
}

// seqs interns int sequences to dense ids, storing them end to end. A
// lookup that hits allocates nothing.
type seqs struct {
	chains
	data []int
	end  []int // per id: where its sequence ends in data
}

// at returns sequence id. The slice must not be modified.
func (s *seqs) at(id int) []int {
	start := 0
	if id > 0 {
		start = s.end[id-1]
	}
	return s.data[start:s.end[id]]
}

// intern returns the id of xs, copying it on a miss.
func (s *seqs) intern(xs []int) int {
	h := hashInts(hashSeed, xs)
	for id := s.first(h); id >= 0; id = s.next[id] {
		if slices.Equal(s.at(id), xs) {
			return id
		}
	}
	s.data = append(s.data, xs...)
	s.end = append(s.end, len(s.data))
	return s.add(h)
}

const hashSeed uint64 = 0xcbf29ce484222325

// mix folds v into the running hash h.
func mix(h, v uint64) uint64 {
	h = (h ^ v) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// hashInts folds xs and its length into h.
func hashInts(h uint64, xs []int) uint64 {
	h = mix(h, uint64(len(xs)))
	for _, x := range xs {
		h = mix(h, uint64(x))
	}
	return h
}

// hashBools folds bs into h, 64 entries a word. Callers fold in what
// fixes len(bs).
func hashBools(h uint64, bs []bool) uint64 {
	var w uint64
	for i, b := range bs {
		if b {
			w |= 1 << uint(i&63)
		}
		if i&63 == 63 {
			h, w = mix(h, w), 0
		}
	}
	return mix(h, w)
}

// ---- small helpers ----

func ipow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}

// odometer advances idx (each digit in [0, base)) to the next tuple in
// row-major order; callers iterate exactly base^len(idx) times.
func odometer(idx []int, base int) {
	for i := len(idx) - 1; i >= 0; i-- {
		idx[i]++
		if idx[i] < base {
			return
		}
		idx[i] = 0
	}
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}
