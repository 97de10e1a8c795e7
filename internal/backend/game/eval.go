package game

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/bitset"
	"repro/internal/mso"
	"repro/internal/stage"
	"repro/internal/structure"
	"repro/internal/tree"
)

// evaluator holds the shared state of one game evaluation: the intern
// tables plus every memo layer. All tables are shared by the bottom-up
// pass, the top-down pass and every element's selection, so each
// behavior is built once however many of them reach it.
type evaluator struct {
	ctx    context.Context
	st     *structure.Structure
	nice   *tree.Decomposition
	q      int // rank: max(formula depth, Eval's depth)
	budget *stage.Budget
	sig    *structure.Signature
	preds  []structure.Predicate

	// setMoves is set when the formula has a set quantifier: only then
	// does eval read a behavior's set children, so only then does direct
	// build them.
	setMoves bool

	// The intern tables: positions by (rank, atomic id, child ids),
	// atomic layers by value, and compose's position maps and eval's
	// bindings, flattened to ints, to key the memos.
	nodes   []*behavior // interned positions by id
	posIDs  chains
	atoms   []*atomic // interned atomic layers by id
	atomIDs chains
	maps    seqs // per posPair: x, then y
	envs    seqs // per binding slot: a tuple position or set index, -1 if unbound

	// The memos. Every key is fixed-size, so a hit allocates nothing.
	directMemo  map[[2]int]int // (rank, atomic id)
	composeMemo map[[3]int]int // (x, y, position map id)
	truncMemo   map[int]int
	projMemo    map[[2]int]int // (position, tuple index)
	evalMemo    map[evalKey]bool

	up     []bagBehavior // per decomposition node: its subtree's behavior
	fnodes map[*mso.Formula]fnode
	slots  map[string]int // variable name → binding slot

	// Scratch, reused by every call. A candidate's atomic layer is
	// computed into atab/arels/amems and interned before any recursive
	// call (layer). What must survive a recursive call lives on a stack
	// instead: each call pushes above the length it found and truncates
	// back to it on return. stack holds child ids and direct's child
	// tuples, masks direct's child set masks, and pairs the position
	// maps of compose's children and of extend and glue. An error
	// abandons the evaluator, so error paths leave the stacks as they
	// are.
	atab   []bool
	arels  [][]bool
	amems  []uint64
	idx    []int // odometer digits, max arity long
	args   []int // one relation tuple, max arity long
	keyBuf []int // a position map or binding being interned
	stack  []int
	masks  []uint64
	pairs  []posPair
	chunk  []int // what take hands out: child lists and bag tuples

	steps int
}

// bagBehavior is a behavior whose distinguished tuple is one node's
// bag, with the tuple's elements in position order.
type bagBehavior struct {
	id    int
	elems []int // must not be modified
}

// evalKey is a game-position memo key: (position, subformula, binding).
type evalKey struct{ id, f, env int }

// fnode is what eval needs of one subformula, resolved by indexFormula.
type fnode struct {
	idx   int   // the subformula's index in evalMemo keys
	slots []int // KAtom: one per argument; KEq, KIn: X's, then Y's; quantifiers: the bound variable's
}

func newEvaluator(ctx context.Context, st *structure.Structure, nice *tree.Decomposition, q int) *evaluator {
	preds := st.Sig().Predicates()
	arity := 0
	for _, p := range preds {
		arity = max(arity, p.Arity)
	}
	return &evaluator{
		ctx:         ctx,
		st:          st,
		nice:        nice,
		q:           q,
		budget:      stage.BudgetFrom(ctx),
		sig:         st.Sig(),
		preds:       preds,
		directMemo:  map[[2]int]int{},
		composeMemo: map[[3]int]int{},
		truncMemo:   map[int]int{},
		projMemo:    map[[2]int]int{},
		evalMemo:    map[evalKey]bool{},
		fnodes:      map[*mso.Formula]fnode{},
		slots:       map[string]int{},
		arels:       make([][]bool, len(preds)),
		idx:         make([]int, arity),
		args:        make([]int, arity),
	}
}

// indexFormula gives every subformula of f its memo index and binding
// slots. It runs before the first binding is interned, since bindings
// have one slot per variable name.
func (e *evaluator) indexFormula(f *mso.Formula) {
	if _, ok := e.fnodes[f]; ok {
		return
	}
	fn := fnode{idx: len(e.fnodes)}
	switch f.Kind {
	case mso.KAtom:
		for _, a := range f.Args {
			fn.slots = append(fn.slots, e.slot(a))
		}
	case mso.KEq, mso.KIn:
		fn.slots = []int{e.slot(f.X), e.slot(f.Y)}
	case mso.KExistsS, mso.KForallS:
		e.setMoves = true
		fn.slots = []int{e.slot(f.Var)}
	case mso.KExistsE, mso.KForallE:
		fn.slots = []int{e.slot(f.Var)}
	}
	e.fnodes[f] = fn
	for _, s := range f.Sub {
		e.indexFormula(s)
	}
}

// slot returns the binding slot of variable name, adding one if new.
func (e *evaluator) slot(name string) int {
	s, ok := e.slots[name]
	if !ok {
		s = len(e.slots)
		e.slots[name] = s
	}
	return s
}

// unbound returns the id of the binding with no variable bound.
func (e *evaluator) unbound() int {
	e.keyBuf = e.keyBuf[:0]
	for range e.slots {
		e.keyBuf = append(e.keyBuf, -1)
	}
	return e.envs.intern(e.keyBuf)
}

// bind returns the id of binding env with slot s set to v: one copy of
// the binding per quantifier move, interned to a small id.
func (e *evaluator) bind(env, s, v int) int {
	e.keyBuf = append(e.keyBuf[:0], e.envs.at(env)...)
	e.keyBuf[s] = v
	return e.envs.intern(e.keyBuf)
}

// upPass computes up[v] for every node, children first (Θ↑ of
// Theorem 4.5): the behavior of the structure induced by v's subtree,
// with bag(v) as the tuple.
func (e *evaluator) upPass() error {
	e.up = make([]bagBehavior, e.nice.Len())
	for _, v := range e.nice.PostOrder() {
		r, err := e.walk(v)
		if err != nil {
			return err
		}
		e.up[v] = r
	}
	return nil
}

// walk computes up[v] from the up behaviors of v's children.
func (e *evaluator) walk(v int) (bagBehavior, error) {
	n := &e.nice.Nodes[v]
	switch n.Kind {
	case tree.KindLeaf:
		tuple := e.carve(n.Bag)
		slices.Sort(tuple)
		id, err := e.direct(tuple, nil, e.q)
		return bagBehavior{id, tuple}, err
	case tree.KindCopy:
		return e.up[n.Children[0]], nil
	case tree.KindIntroduce:
		return e.extend(e.up[n.Children[0]], n.Bag, n.Elem)
	case tree.KindForget:
		return e.forget(e.up[n.Children[0]], n.Elem)
	case tree.KindBranch:
		return e.glue(e.up[n.Children[0]], e.up[n.Children[1]])
	}
	return bagBehavior{}, fmt.Errorf("game: node %d has kind %v: decomposition is not in nice form", v, n.Kind)
}

// downPass computes down[v] for every node, parents first (Θ↓ of
// Theorem 4.5): the behavior of the structure induced by v's envelope,
// the elements outside v's subtree plus bag(v), with bag(v) as the
// tuple. At the root that structure is the root bag alone; each step
// down reverses one step of the up pass, and below a branch node the
// context takes in the sibling's subtree.
func (e *evaluator) downPass() ([]bagBehavior, error) {
	down := make([]bagBehavior, e.nice.Len())
	tuple := e.carve(e.nice.Nodes[e.nice.Root].Bag)
	slices.Sort(tuple)
	id, err := e.direct(tuple, nil, e.q)
	if err != nil {
		return nil, err
	}
	down[e.nice.Root] = bagBehavior{id, tuple}
	for _, v := range e.nice.PreOrder() {
		n := &e.nice.Nodes[v]
		switch n.Kind {
		case tree.KindCopy:
			down[n.Children[0]] = down[v]
		case tree.KindIntroduce:
			down[n.Children[0]], err = e.forget(down[v], n.Elem)
		case tree.KindForget:
			c := n.Children[0]
			down[c], err = e.extend(down[v], e.nice.Nodes[c].Bag, n.Elem)
		case tree.KindBranch:
			l, r := n.Children[0], n.Children[1]
			if down[l], err = e.glue(down[v], e.up[r]); err == nil {
				down[r], err = e.glue(down[v], e.up[l])
			}
		}
		if err != nil {
			return nil, err
		}
	}
	return down, nil
}

// selectPass decides phi(x) for every element, once, at the first node
// of a post-order whose bag holds it: on glue(up[v], down[v]), the
// behavior of the whole structure with bag(v) as the tuple. The two
// sides share exactly bag(v) (connectedness), so the gluing is sound.
func (e *evaluator) selectPass(phi *mso.Formula, xVar string) (*bitset.Set, error) {
	down, err := e.downPass()
	if err != nil {
		return nil, err
	}
	size := e.st.Size()
	selected, decided := bitset.New(size), bitset.New(size)
	root, x := e.unbound(), e.slots[xVar]
	for _, v := range e.nice.PostOrder() {
		var whole bagBehavior
		glued := false
		for _, a := range e.nice.Nodes[v].Bag {
			if decided.Has(a) {
				continue
			}
			if !glued {
				if whole, err = e.glue(e.up[v], down[v]); err != nil {
					return nil, err
				}
				glued = true
			}
			decided.Add(a)
			sel, err := e.eval(whole.id, phi, e.bind(root, x, indexOf(whole.elems, a)))
			if err != nil {
				return nil, err
			}
			if sel {
				selected.Add(a)
			}
		}
	}
	for a := 0; a < size; a++ {
		if !decided.Has(a) {
			return nil, fmt.Errorf("game: internal: element %d is in no bag", a)
		}
	}
	return selected, nil
}

// extend glues the structure of r to the one induced by bag, which is
// r's tuple plus elem: the introduce step of the up pass and the
// forget step, read downwards, of the down pass. The tuple becomes
// r's, then elem.
func (e *evaluator) extend(r bagBehavior, bag []int, elem int) (bagBehavior, error) {
	t, p := len(e.stack), len(e.pairs)
	e.stack = append(e.stack, bag...)
	local := e.stack[t:]
	slices.Sort(local)
	lid, err := e.direct(local, nil, e.q)
	if err != nil {
		return bagBehavior{}, err
	}
	// Shared elements are exactly r's tuple: elem occurs on the other
	// side of the bag only (connectedness).
	for i, el := range r.elems {
		e.pairs = append(e.pairs, posPair{i, indexOf(local, el)})
	}
	e.pairs = append(e.pairs, posPair{-1, indexOf(local, elem)})
	id, err := e.compose(r.id, lid, e.pairs[p:])
	if err != nil {
		return bagBehavior{}, err
	}
	e.stack, e.pairs = e.stack[:t], e.pairs[:p]
	elems := e.take(len(r.elems) + 1)
	elems[copy(elems, r.elems)] = elem
	return bagBehavior{id, elems}, nil
}

// forget drops elem from r's tuple; it stays in the structure. It is
// the forget step of the up pass and the introduce step, read
// downwards, of the down pass.
func (e *evaluator) forget(r bagBehavior, elem int) (bagBehavior, error) {
	p := indexOf(r.elems, elem)
	if p < 0 {
		return bagBehavior{}, fmt.Errorf("game: internal: forget of element %d absent from tuple", elem)
	}
	id, err := e.project(r.id, p)
	if err != nil {
		return bagBehavior{}, err
	}
	elems := e.take(len(r.elems) - 1)
	copy(elems[copy(elems, r.elems[:p]):], r.elems[p+1:])
	return bagBehavior{id, elems}, nil
}

// glue composes two behaviors over the same bag whose structures share
// exactly that bag; the tuple keeps r's order.
func (e *evaluator) glue(r, s bagBehavior) (bagBehavior, error) {
	p := len(e.pairs)
	for i, el := range r.elems {
		e.pairs = append(e.pairs, posPair{i, indexOf(s.elems, el)})
	}
	id, err := e.compose(r.id, s.id, e.pairs[p:])
	e.pairs = e.pairs[:p]
	return bagBehavior{id, r.elems}, err
}

// eval decides formula f on behavior id under binding env (an id in
// envs), which binds element variables to tuple positions and set
// variables to set indices. This is the game-position memo table:
// results are memoized on (behavior, subformula, binding).
func (e *evaluator) eval(id int, f *mso.Formula, env int) (bool, error) {
	if err := e.poll(); err != nil {
		return false, err
	}
	fn := e.fnodes[f]
	key := evalKey{id: id, f: fn.idx, env: env}
	if v, ok := e.evalMemo[key]; ok {
		return v, nil
	}
	b := e.nodes[id]
	a := b.a
	var out bool
	switch f.Kind {
	case mso.KTrue:
		out = true
	case mso.KFalse:
		out = false
	case mso.KAtom:
		pi, p, ok := e.sig.Lookup(f.Pred)
		if !ok {
			return false, fmt.Errorf("game: unknown predicate %q", f.Pred)
		}
		if len(f.Args) != p.Arity {
			return false, fmt.Errorf("game: predicate %q wants %d arguments, got %d", f.Pred, p.Arity, len(f.Args))
		}
		binds := e.envs.at(env)
		flat := 0
		for k, s := range fn.slots {
			pos := binds[s]
			if pos < 0 {
				return false, fmt.Errorf("game: unbound element variable %q", f.Args[k])
			}
			flat = flat*a.m + pos
		}
		out = a.rels[pi][flat]
	case mso.KEq:
		binds := e.envs.at(env)
		xi, yi := binds[fn.slots[0]], binds[fn.slots[1]]
		if xi < 0 || yi < 0 {
			return false, fmt.Errorf("game: unbound element variable in %s = %s", f.X, f.Y)
		}
		out = a.eq[xi*a.m+yi]
	case mso.KIn:
		binds := e.envs.at(env)
		xi, si := binds[fn.slots[0]], binds[fn.slots[1]]
		if xi < 0 || si < 0 {
			return false, fmt.Errorf("game: unbound variable in %s in %s", f.X, f.Y)
		}
		out = a.mems[si]&(1<<uint(xi)) != 0
	case mso.KNot:
		v, err := e.eval(id, f.Sub[0], env)
		if err != nil {
			return false, err
		}
		out = !v
	case mso.KAnd, mso.KOr:
		stop := f.Kind == mso.KOr // short-circuit value
		out = !stop
		for _, s := range f.Sub {
			v, err := e.eval(id, s, env)
			if err != nil {
				return false, err
			}
			if v == stop {
				out = stop
				break
			}
		}
	case mso.KImpl:
		lhs, err := e.eval(id, f.Sub[0], env)
		if err != nil {
			return false, err
		}
		if !lhs {
			out = true
			break
		}
		out, err = e.eval(id, f.Sub[1], env)
		if err != nil {
			return false, err
		}
	case mso.KIff:
		lhs, err := e.eval(id, f.Sub[0], env)
		if err != nil {
			return false, err
		}
		rhs, err := e.eval(id, f.Sub[1], env)
		if err != nil {
			return false, err
		}
		out = lhs == rhs
	case mso.KExistsE, mso.KForallE:
		if b.rank == 0 {
			return false, fmt.Errorf("game: internal: quantifier at rank 0")
		}
		forall := f.Kind == mso.KForallE
		out = forall
		// The bound variable lands on the child's appended position,
		// index a.m; existing bindings keep their indices.
		child := e.bind(env, fn.slots[0], a.m)
		for _, lst := range [][]int{b.pointAt, b.pointNew} {
			for _, c := range lst {
				v, err := e.eval(c, f.Sub[0], child)
				if err != nil {
					return false, err
				}
				if v != forall {
					out = v
					goto done
				}
			}
		}
	case mso.KExistsS, mso.KForallS:
		if b.rank == 0 {
			return false, fmt.Errorf("game: internal: quantifier at rank 0")
		}
		forall := f.Kind == mso.KForallS
		out = forall
		child := e.bind(env, fn.slots[0], a.nsets())
		for _, c := range b.sets {
			v, err := e.eval(c, f.Sub[0], child)
			if err != nil {
				return false, err
			}
			if v != forall {
				out = v
				break
			}
		}
	default:
		return false, fmt.Errorf("game: unsupported formula kind %d", f.Kind)
	}
done:
	e.evalMemo[key] = out
	return out, nil
}
