package game

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bitset"
	"repro/internal/mso"
	"repro/internal/stage"
	"repro/internal/structure"
	"repro/internal/tree"
)

// evaluator holds the shared state of one game evaluation: the interned
// behavior table plus every memo layer. All tables are shared by the
// bottom-up pass, the top-down pass and every element's selection, so
// each behavior is built once however many of them reach it.
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

	nodes []*behavior    // interned behaviors by id
	ids   map[string]int // canonical serialization → id

	directMemo  map[string]int
	composeMemo map[string]int
	truncMemo   map[int]int
	projMemo    map[[2]int]int

	up       []bagBehavior // per decomposition node: its subtree's behavior
	evalMemo map[evalKey]bool
	fidx     map[*mso.Formula]int

	steps   int
	scratch []byte
}

// bagBehavior is a behavior whose distinguished tuple is one node's
// bag, with the tuple's elements in position order.
type bagBehavior struct {
	id    int
	elems []int // must not be modified
}

type evalKey struct {
	id  int
	f   int
	env string
}

func newEvaluator(ctx context.Context, st *structure.Structure, nice *tree.Decomposition, q int) *evaluator {
	return &evaluator{
		ctx:         ctx,
		st:          st,
		nice:        nice,
		q:           q,
		budget:      stage.BudgetFrom(ctx),
		sig:         st.Sig(),
		preds:       st.Sig().Predicates(),
		ids:         map[string]int{},
		directMemo:  map[string]int{},
		composeMemo: map[string]int{},
		truncMemo:   map[int]int{},
		projMemo:    map[[2]int]int{},
		evalMemo:    map[evalKey]bool{},
		fidx:        map[*mso.Formula]int{},
		scratch:     make([]byte, 0, 256),
	}
}

func (e *evaluator) indexFormula(f *mso.Formula) {
	if _, ok := e.fidx[f]; ok {
		return
	}
	e.fidx[f] = len(e.fidx)
	if f.Kind == mso.KExistsS || f.Kind == mso.KForallS {
		e.setMoves = true
	}
	for _, s := range f.Sub {
		e.indexFormula(s)
	}
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
		tuple := append([]int(nil), n.Bag...)
		sort.Ints(tuple)
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
	tuple := append([]int(nil), e.nice.Nodes[e.nice.Root].Bag...)
	sort.Ints(tuple)
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
			sel, err := e.eval(whole.id, phi, map[string]int{xVar: indexOf(whole.elems, a)})
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
	local := append([]int(nil), bag...)
	sort.Ints(local)
	lid, err := e.direct(local, nil, e.q)
	if err != nil {
		return bagBehavior{}, err
	}
	// Shared elements are exactly r's tuple: elem occurs on the other
	// side of the bag only (connectedness).
	pm := make([]posPair, 0, len(r.elems)+1)
	for i, el := range r.elems {
		pm = append(pm, posPair{i, indexOf(local, el)})
	}
	pm = append(pm, posPair{-1, indexOf(local, elem)})
	id, err := e.compose(r.id, lid, pm)
	if err != nil {
		return bagBehavior{}, err
	}
	return bagBehavior{id, append(append([]int(nil), r.elems...), elem)}, nil
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
	return bagBehavior{id, append(append([]int(nil), r.elems[:p]...), r.elems[p+1:]...)}, nil
}

// glue composes two behaviors over the same bag whose structures share
// exactly that bag; the tuple keeps r's order.
func (e *evaluator) glue(r, s bagBehavior) (bagBehavior, error) {
	pm := make([]posPair, len(r.elems))
	for i, el := range r.elems {
		pm[i] = posPair{i, indexOf(s.elems, el)}
	}
	id, err := e.compose(r.id, s.id, pm)
	return bagBehavior{id, r.elems}, err
}

// eval decides formula f on behavior id under env, which binds element
// variables to tuple positions and set variables to set indices. This
// is the game-position memo table: results are memoized on (behavior,
// subformula, interpretation).
func (e *evaluator) eval(id int, f *mso.Formula, env map[string]int) (bool, error) {
	if err := e.poll(); err != nil {
		return false, err
	}
	key := evalKey{id: id, f: e.fidx[f], env: envKey(env)}
	if v, ok := e.evalMemo[key]; ok {
		return v, nil
	}
	b := e.nodes[id]
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
		flat := 0
		for _, a := range f.Args {
			pos, bound := env[a]
			if !bound {
				return false, fmt.Errorf("game: unbound element variable %q", a)
			}
			flat = flat*b.m + pos
		}
		out = b.rels[pi][flat]
	case mso.KEq:
		xi, okx := env[f.X]
		yi, oky := env[f.Y]
		if !okx || !oky {
			return false, fmt.Errorf("game: unbound element variable in %s = %s", f.X, f.Y)
		}
		out = b.eq[xi*b.m+yi]
	case mso.KIn:
		xi, okx := env[f.X]
		si, oks := env[f.Y]
		if !okx || !oks {
			return false, fmt.Errorf("game: unbound variable in %s in %s", f.X, f.Y)
		}
		out = b.mems[si]&(1<<uint(xi)) != 0
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
		a, err := e.eval(id, f.Sub[0], env)
		if err != nil {
			return false, err
		}
		if !a {
			out = true
			break
		}
		out, err = e.eval(id, f.Sub[1], env)
		if err != nil {
			return false, err
		}
	case mso.KIff:
		a, err := e.eval(id, f.Sub[0], env)
		if err != nil {
			return false, err
		}
		c, err := e.eval(id, f.Sub[1], env)
		if err != nil {
			return false, err
		}
		out = a == c
	case mso.KExistsE, mso.KForallE:
		if b.rank == 0 {
			return false, fmt.Errorf("game: internal: quantifier at rank 0")
		}
		forall := f.Kind == mso.KForallE
		out = forall
		// The bound variable lands on the child's appended position,
		// index b.m; existing bindings keep their indices.
		candidates := b.pointAt
		for _, lst := range [][]int{candidates, b.pointNew} {
			for _, c := range lst {
				env2 := cloneEnv(env)
				env2[f.Var] = b.m
				v, err := e.eval(c, f.Sub[0], env2)
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
		for _, c := range b.sets {
			env2 := cloneEnv(env)
			env2[f.Var] = b.nsets
			v, err := e.eval(c, f.Sub[0], env2)
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

func cloneEnv(env map[string]int) map[string]int {
	out := make(map[string]int, len(env)+1)
	for k, v := range env {
		out[k] = v
	}
	return out
}

func envKey(env map[string]int) string {
	if len(env) == 0 {
		return ""
	}
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(strconv.Itoa(env[k]))
		sb.WriteByte(';')
	}
	return sb.String()
}
