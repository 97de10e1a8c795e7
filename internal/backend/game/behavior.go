package game

import (
	"encoding/binary"
	"fmt"
	"sort"

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
type behavior struct {
	rank  int // remaining quantifier moves
	m     int // tuple length
	nsets int // sets chosen so far (== len(mems))

	eq   []bool   // m×m: tuple[i] == tuple[j], row-major
	rels [][]bool // per signature predicate: m^arity truth table, odometer order
	mems []uint64 // per chosen set: membership bitmask over tuple positions

	// Children exist only at rank > 0; all have rank-1.
	pointAt  []int // per position i: behavior after pointing at tuple[i] (tuple grows to m+1)
	pointNew []int // behaviors after pointing at some element equal to NO tuple element; sorted, deduped
	sets     []int // behaviors after choosing one more set; sorted, deduped (none unless the formula has a set quantifier)
}

// posPair maps one combined tuple position onto the operand positions
// of a composition: x/y are positions in the left/right behavior, -1
// when the element is private to the other side. Shared elements are
// always both-mapped — the invariant composition soundness rests on.
type posPair struct{ x, y int }

// serialize renders the behavior canonically. Children are referenced
// by interned id, so equal serializations mean equal behavior trees
// (hash-consing: children are always interned before their parent).
func (b *behavior) serialize(buf []byte) []byte {
	buf = binary.AppendVarint(buf, int64(b.rank))
	buf = binary.AppendVarint(buf, int64(b.m))
	buf = binary.AppendVarint(buf, int64(b.nsets))
	for _, v := range b.eq {
		buf = append(buf, boolByte(v))
	}
	buf = binary.AppendVarint(buf, int64(len(b.rels)))
	for _, tab := range b.rels {
		buf = binary.AppendVarint(buf, int64(len(tab)))
		for _, v := range tab {
			buf = append(buf, boolByte(v))
		}
	}
	for _, m := range b.mems {
		buf = binary.AppendUvarint(buf, m)
	}
	for _, c := range b.pointAt {
		buf = binary.AppendVarint(buf, int64(c))
	}
	buf = binary.AppendVarint(buf, int64(len(b.pointNew)))
	for _, c := range b.pointNew {
		buf = binary.AppendVarint(buf, int64(c))
	}
	buf = binary.AppendVarint(buf, int64(len(b.sets)))
	for _, c := range b.sets {
		buf = binary.AppendVarint(buf, int64(c))
	}
	return buf
}

// atomicKey serializes only the quantifier-free layer plus rank — the
// full determinant of a brute-forced behavior (see direct).
func (b *behavior) atomicKey(buf []byte) []byte {
	buf = binary.AppendVarint(buf, int64(b.rank))
	buf = binary.AppendVarint(buf, int64(b.m))
	buf = binary.AppendVarint(buf, int64(b.nsets))
	for _, v := range b.eq {
		buf = append(buf, boolByte(v))
	}
	for _, tab := range b.rels {
		for _, v := range tab {
			buf = append(buf, boolByte(v))
		}
	}
	for _, m := range b.mems {
		buf = binary.AppendUvarint(buf, m)
	}
	return buf
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// intern returns the canonical id of b, charging the game-positions
// budget (and the game.memo fault point) for each genuinely new
// position.
func (e *evaluator) intern(b *behavior) (int, error) {
	key := string(b.serialize(e.scratch[:0]))
	if id, ok := e.ids[key]; ok {
		return id, nil
	}
	if err := faultinject.Check("game.memo"); err != nil {
		return 0, err
	}
	if err := e.budget.AddGamePositions(1); err != nil {
		return 0, err
	}
	id := len(e.nodes)
	e.nodes = append(e.nodes, b)
	e.ids[key] = id
	return id, nil
}

// expand gates every behavior construction: context poll, fault point.
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
// whole domain sits in the tuple, pointNew is always empty here.
func (e *evaluator) direct(tuple []int, mems []uint64, rank int) (int, error) {
	if err := e.expand(); err != nil {
		return 0, err
	}
	m := len(tuple)
	b := &behavior{rank: rank, m: m, nsets: len(mems), mems: append([]uint64(nil), mems...)}
	b.eq = make([]bool, m*m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			b.eq[i*m+j] = tuple[i] == tuple[j]
		}
	}
	b.rels = make([][]bool, len(e.preds))
	for pi, p := range e.preds {
		size := ipow(m, p.Arity)
		tab := make([]bool, size)
		idx := make([]int, p.Arity)
		args := make([]int, p.Arity)
		for flat := 0; flat < size; flat++ {
			for i := range idx {
				args[i] = tuple[idx[i]]
			}
			tab[flat] = e.st.HasIdx(pi, args)
			odometer(idx, m)
		}
		b.rels[pi] = tab
	}
	key := string(b.atomicKey(e.scratch[:0]))
	if id, ok := e.directMemo[key]; ok {
		return id, nil
	}
	if rank > 0 {
		// Point moves. Every domain element equals some tuple element, so
		// all point moves land in pointAt and pointNew stays empty.
		b.pointAt = make([]int, m)
		for i := 0; i < m; i++ {
			cm := make([]uint64, len(mems))
			for s, mask := range mems {
				cm[s] = mask
				if mask&(1<<uint(i)) != 0 {
					cm[s] |= 1 << uint(m)
				}
			}
			ct := make([]int, m+1)
			copy(ct, tuple)
			ct[m] = tuple[i]
			cid, err := e.direct(ct, cm, rank-1)
			if err != nil {
				return 0, err
			}
			b.pointAt[i] = cid
		}
		// Set moves, only for a formula that can make one: one child per
		// subset of the domain. Enumerate over representative positions
		// (first occurrence of each element) and expand each choice to a
		// full position mask.
		if e.setMoves {
			var reps []int
			seen := map[int]int{}
			for i, el := range tuple {
				if _, ok := seen[el]; !ok {
					seen[el] = i
					reps = append(reps, i)
				}
			}
			var setChildren []int
			for mask := 0; mask < 1<<uint(len(reps)); mask++ {
				var pmask uint64
				for i, el := range tuple {
					ri := 0
					for k, r := range reps {
						if tuple[r] == el {
							ri = k
							break
						}
					}
					if mask&(1<<uint(ri)) != 0 {
						pmask |= 1 << uint(i)
					}
				}
				cm := append(append([]uint64(nil), mems...), pmask)
				cid, err := e.direct(tuple, cm, rank-1)
				if err != nil {
					return 0, err
				}
				setChildren = append(setChildren, cid)
			}
			b.sets = dedupSorted(setChildren)
		}
	}
	id, err := e.intern(b)
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
	key := composeKey(x, y, pm)
	if id, ok := e.composeMemo[key]; ok {
		return id, nil
	}
	bx, by := e.nodes[x], e.nodes[y]
	if bx.rank != by.rank || bx.nsets != by.nsets {
		return 0, fmt.Errorf("game: internal: compose rank/nsets mismatch (%d/%d vs %d/%d)", bx.rank, bx.nsets, by.rank, by.nsets)
	}
	m := len(pm)
	b := &behavior{rank: bx.rank, m: m, nsets: bx.nsets}
	b.eq = make([]bool, m*m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			switch {
			case pm[i].x >= 0 && pm[j].x >= 0:
				b.eq[i*m+j] = bx.eq[pm[i].x*bx.m+pm[j].x]
			case pm[i].y >= 0 && pm[j].y >= 0:
				b.eq[i*m+j] = by.eq[pm[i].y*by.m+pm[j].y]
			}
		}
	}
	b.rels = make([][]bool, len(e.preds))
	for pi, p := range e.preds {
		size := ipow(m, p.Arity)
		tab := make([]bool, size)
		idx := make([]int, p.Arity)
		for flat := 0; flat < size; flat++ {
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
					sub = sub*bx.m + pm[pos].x
				}
				tab[flat] = bx.rels[pi][sub]
			} else if allY {
				sub := 0
				for _, pos := range idx {
					sub = sub*by.m + pm[pos].y
				}
				tab[flat] = by.rels[pi][sub]
			}
			odometer(idx, m)
		}
		b.rels[pi] = tab
	}
	b.mems = make([]uint64, b.nsets)
	for s := 0; s < b.nsets; s++ {
		for i, pp := range pm {
			var bit bool
			if pp.x >= 0 {
				bit = bx.mems[s]&(1<<uint(pp.x)) != 0
			} else {
				bit = by.mems[s]&(1<<uint(pp.y)) != 0
			}
			if bit {
				b.mems[s] |= 1 << uint(i)
			}
		}
	}
	if b.rank > 0 {
		// Point moves at an existing position: both sides advance when the
		// element is shared; a side blind to the element loses one rank
		// (truncate) and leaves the new position unmapped on its side.
		b.pointAt = make([]int, m)
		for i, pp := range pm {
			var cid int
			var err error
			switch {
			case pp.x >= 0 && pp.y >= 0:
				cpm := append(append([]posPair(nil), pm...), posPair{bx.m, by.m})
				cid, err = e.compose(bx.pointAt[pp.x], by.pointAt[pp.y], cpm)
			case pp.x >= 0:
				ty, terr := e.truncate(y)
				if terr != nil {
					return 0, terr
				}
				cpm := append(append([]posPair(nil), pm...), posPair{bx.m, -1})
				cid, err = e.compose(bx.pointAt[pp.x], ty, cpm)
			default:
				tx, terr := e.truncate(x)
				if terr != nil {
					return 0, terr
				}
				cpm := append(append([]posPair(nil), pm...), posPair{-1, by.m})
				cid, err = e.compose(tx, by.pointAt[pp.y], cpm)
			}
			if err != nil {
				return 0, err
			}
			b.pointAt[i] = cid
		}
		// Point moves to fresh elements: private to one side, invisible to
		// the other.
		var fresh []int
		for _, cx := range bx.pointNew {
			ty, err := e.truncate(y)
			if err != nil {
				return 0, err
			}
			cpm := append(append([]posPair(nil), pm...), posPair{bx.m, -1})
			cid, err := e.compose(cx, ty, cpm)
			if err != nil {
				return 0, err
			}
			fresh = append(fresh, cid)
		}
		for _, cy := range by.pointNew {
			tx, err := e.truncate(x)
			if err != nil {
				return 0, err
			}
			cpm := append(append([]posPair(nil), pm...), posPair{-1, by.m})
			cid, err := e.compose(tx, cy, cpm)
			if err != nil {
				return 0, err
			}
			fresh = append(fresh, cid)
		}
		b.pointNew = dedupSorted(fresh)
		// Set moves: any pair of side-local set choices agreeing on the
		// shared positions glues to a combined set — membership on tuple
		// positions is pinned by the behaviors, and shared elements are
		// always tuple positions, so agreement on both-mapped bits is
		// exactly agreement on the shared elements.
		var setChildren []int
		for _, cxid := range bx.sets {
			cx := e.nodes[cxid]
			for _, cyid := range by.sets {
				cy := e.nodes[cyid]
				ok := true
				for _, pp := range pm {
					if pp.x < 0 || pp.y < 0 {
						continue
					}
					if (cx.mems[b.nsets]&(1<<uint(pp.x)) != 0) != (cy.mems[b.nsets]&(1<<uint(pp.y)) != 0) {
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
				setChildren = append(setChildren, cid)
			}
		}
		b.sets = dedupSorted(setChildren)
	}
	id, err := e.intern(b)
	if err != nil {
		return 0, err
	}
	e.composeMemo[key] = id
	return id, nil
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
	nb := &behavior{rank: b.rank - 1, m: b.m, nsets: b.nsets, eq: b.eq, rels: b.rels, mems: b.mems}
	if nb.rank > 0 {
		nb.pointAt = make([]int, b.m)
		for i, c := range b.pointAt {
			tc, err := e.truncate(c)
			if err != nil {
				return 0, err
			}
			nb.pointAt[i] = tc
		}
		var err error
		if nb.pointNew, err = e.truncateAll(b.pointNew); err != nil {
			return 0, err
		}
		if nb.sets, err = e.truncateAll(b.sets); err != nil {
			return 0, err
		}
	}
	tid, err := e.intern(nb)
	if err != nil {
		return 0, err
	}
	e.truncMemo[id] = tid
	return tid, nil
}

func (e *evaluator) truncateAll(ids []int) ([]int, error) {
	out := make([]int, 0, len(ids))
	for _, c := range ids {
		tc, err := e.truncate(c)
		if err != nil {
			return nil, err
		}
		out = append(out, tc)
	}
	return dedupSorted(out), nil
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
	m := b.m - 1
	old := func(i int) int {
		if i < p {
			return i
		}
		return i + 1
	}
	nb := &behavior{rank: b.rank, m: m, nsets: b.nsets}
	nb.eq = make([]bool, m*m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			nb.eq[i*m+j] = b.eq[old(i)*b.m+old(j)]
		}
	}
	nb.rels = make([][]bool, len(e.preds))
	for pi, pr := range e.preds {
		size := ipow(m, pr.Arity)
		tab := make([]bool, size)
		idx := make([]int, pr.Arity)
		for flat := 0; flat < size; flat++ {
			sub := 0
			for _, pos := range idx {
				sub = sub*b.m + old(pos)
			}
			tab[flat] = b.rels[pi][sub]
			odometer(idx, m)
		}
		nb.rels[pi] = tab
	}
	nb.mems = make([]uint64, b.nsets)
	for s, mask := range b.mems {
		low := mask & (1<<uint(p) - 1)
		high := (mask >> uint(p+1)) << uint(p)
		nb.mems[s] = low | high
	}
	if b.rank > 0 {
		nb.pointAt = make([]int, m)
		for i := 0; i < m; i++ {
			c, err := e.project(b.pointAt[old(i)], p)
			if err != nil {
				return 0, err
			}
			nb.pointAt[i] = c
		}
		var fresh []int
		for _, c := range b.pointNew {
			pc, err := e.project(c, p)
			if err != nil {
				return 0, err
			}
			fresh = append(fresh, pc)
		}
		dup := false
		for j := 0; j < b.m; j++ {
			if j != p && b.eq[p*b.m+j] {
				dup = true
				break
			}
		}
		if !dup {
			pc, err := e.project(b.pointAt[p], p)
			if err != nil {
				return 0, err
			}
			fresh = append(fresh, pc)
		}
		nb.pointNew = dedupSorted(fresh)
		var setChildren []int
		for _, c := range b.sets {
			pc, err := e.project(c, p)
			if err != nil {
				return 0, err
			}
			setChildren = append(setChildren, pc)
		}
		nb.sets = dedupSorted(setChildren)
	}
	nid, err := e.intern(nb)
	if err != nil {
		return 0, err
	}
	e.projMemo[key] = nid
	return nid, nil
}

// ---- small helpers ----

func composeKey(x, y int, pm []posPair) string {
	buf := make([]byte, 0, 16+len(pm)*4)
	buf = binary.AppendVarint(buf, int64(x))
	buf = binary.AppendVarint(buf, int64(y))
	for _, pp := range pm {
		buf = binary.AppendVarint(buf, int64(pp.x))
		buf = binary.AppendVarint(buf, int64(pp.y))
	}
	return string(buf)
}

func dedupSorted(ids []int) []int {
	if len(ids) == 0 {
		return nil
	}
	sort.Ints(ids)
	out := ids[:1]
	for _, v := range ids[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

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
