package primality

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/bitset"
	"repro/internal/decompose"
	"repro/internal/horn"
	"repro/internal/schema"
	"repro/internal/solver"
	"repro/internal/tree"
)

// Instance bundles a schema with its τ-structure and a tree decomposition
// ready for the PRIMALITY dynamic programs.
type Instance struct {
	ctx  *ctx
	raw  *tree.Decomposition
	opts tree.NiceOptions
}

// NewInstance builds an instance, computing a tree decomposition of the
// schema's τ-structure with the min-fill heuristic.
func NewInstance(s *schema.Schema) (*Instance, error) {
	return NewInstanceCtx(context.Background(), s)
}

// NewInstanceCtx is NewInstance with cancellation support: the
// decomposition stage polls ctx and context errors come back wrapped in
// a *stage.Error (see decompose.OrderCtx).
func NewInstanceCtx(ctx context.Context, s *schema.Schema) (*Instance, error) {
	c := newCtx(s)
	d, err := decompose.StructureCtx(ctx, c.st, decompose.MinFill)
	if err != nil {
		return nil, err
	}
	return newInstanceWith(c, d)
}

// NewInstanceWithDecomposition uses a caller-provided raw decomposition of
// the schema's τ-structure (as produced by schema.Schema.ToStructure).
func NewInstanceWithDecomposition(s *schema.Schema, d *tree.Decomposition) (*Instance, error) {
	return newInstanceWith(newCtx(s), d.Clone())
}

func newInstanceWith(c *ctx, d *tree.Decomposition) (*Instance, error) {
	if err := c.prepareDecomposition(d); err != nil {
		return nil, err
	}
	return &Instance{ctx: c, raw: d}, nil
}

// Width returns the width of the (prepared) decomposition.
func (in *Instance) Width() int { return in.raw.Width() }

// Decide reports whether attribute a (by schema index) is prime, by the
// bottom-up Figure 6 program on a decomposition re-rooted at a bag
// containing a.
func (in *Instance) Decide(a int) (bool, error) {
	return in.DecideCtx(context.Background(), a)
}

// DecideCtx is Decide with cancellation support: normalization and the
// DP run poll ctx (see tree.Decomposition.Schedule for the cancellation
// contract).
func (in *Instance) DecideCtx(cx context.Context, a int) (bool, error) {
	c := in.ctx
	if a < 0 || a >= c.s.NumAttrs() {
		return false, fmt.Errorf("primality: attribute %d out of range", a)
	}
	aElem := c.attElem[a]
	d := in.raw.Clone()
	node := d.NodeWithElem(aElem)
	if node < 0 {
		return false, fmt.Errorf("primality: attribute %s not in any bag", c.s.AttrName(a))
	}
	d.ReRoot(node)
	nice, err := tree.NormalizeNiceCtx(cx, d, tree.NiceOptions{})
	if err != nil {
		return false, err
	}
	if err := c.checkDiscipline(nice); err != nil {
		return false, err
	}
	return solver.Decide(cx, nice, figure6{c: c, aElem: aElem})
}

// Enumerate computes the set of prime attributes by the linear-time
// algorithm of Section 5.3: one bottom-up pass (solve) and one top-down
// pass (solve↓) over an enumeration-form decomposition in which every
// attribute occurs in some leaf bag; primality of a is then read off any
// leaf containing a, since the envelope of a leaf is the entire tree.
func (in *Instance) Enumerate() (*bitset.Set, error) {
	return in.EnumerateCtx(context.Background())
}

// EnumerateCtx is Enumerate with cancellation support: normalization
// and both DP passes poll ctx (see tree.Decomposition.Schedule).
func (in *Instance) EnumerateCtx(cx context.Context) (*bitset.Set, error) {
	c := in.ctx
	attrElems := bitset.New(c.st.Size())
	for _, e := range c.attElem {
		attrElems.Add(e)
	}
	nice, err := tree.NormalizeNiceCtx(cx, in.raw, tree.NiceOptions{LeafElems: attrElems, BranchGuard: true})
	if err != nil {
		return nil, err
	}
	if err := tree.CheckEnumerable(nice, attrElems); err != nil {
		return nil, err
	}
	if err := c.checkDiscipline(nice); err != nil {
		return nil, err
	}
	prob := figure6{c: c, aElem: -1}
	up, err := solver.Up(cx, nice, prob, solver.Decision{})
	if err != nil {
		return nil, err
	}
	down, err := solver.Down(cx, nice, prob, solver.Decision{}, up)
	if err != nil {
		return nil, err
	}
	// Index: element → one leaf containing it.
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
	primes := bitset.New(c.s.NumAttrs())
	for a := 0; a < c.s.NumAttrs(); a++ {
		leaf, ok := leafOf[c.attElem[a]]
		if !ok {
			return nil, fmt.Errorf("primality: attribute %s missing from every leaf bag", c.s.AttrName(a))
		}
		bag := bags[leaf]
		for _, key := range down[leaf].Order {
			if c.accepting(bag, key, c.attElem[a]) {
				primes.Add(a)
				break
			}
		}
	}
	return primes, nil
}

// EnumerateNaive computes the prime attributes by running the decision
// program once per attribute (the "naive first attempt" of Section 5.3
// with quadratic data complexity; the baseline of experiment E4).
func (in *Instance) EnumerateNaive() (*bitset.Set, error) {
	primes := bitset.New(in.ctx.s.NumAttrs())
	for a := 0; a < in.ctx.s.NumAttrs(); a++ {
		ok, err := in.Decide(a)
		if err != nil {
			return nil, err
		}
		if ok {
			primes.Add(a)
		}
	}
	return primes, nil
}

// GroundDecide decides primality of attribute a by full grounding: every
// syntactically possible solve fact at every node becomes a propositional
// variable and every Figure 6 rule instance a Horn clause, evaluated by
// linear-time unit resolution. This is the architecture of the paper's
// prototype before its "lazy grounding" optimization (Section 6,
// optimizations (1)–(2)) and serves as the baseline of experiment E7.
func (in *Instance) GroundDecide(a int) (bool, error) {
	c := in.ctx
	if a < 0 || a >= c.s.NumAttrs() {
		return false, fmt.Errorf("primality: attribute %d out of range", a)
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
	prog, successVar, err := c.ground(nice, aElem)
	if err != nil {
		return false, err
	}
	truth := prog.Solve()
	return successVar >= 0 && truth[successVar], nil
}

// ground builds the full propositional program: variables are (node,
// state) pairs over all enumerable states, clauses are rule instances.
func (c *ctx) ground(nice *tree.Decomposition, aElem int) (*horn.Program, int, error) {
	prog := &horn.Program{}
	varID := map[uint64]int{}
	nextVar := 0
	id := func(node int, st int32) int {
		k := uint64(node)<<32 | uint64(uint32(st))
		if v, ok := varID[k]; ok {
			return v
		}
		v := nextVar
		nextVar++
		varID[k] = v
		return v
	}
	// allStates enumerates every syntactically possible state at a bag:
	// exactly the leaf enumeration without the FY/ΔC determinism (FY and
	// ΔC range over all subsets consistent with their invariants).
	allStates := func(bag []int) []int32 {
		attrs, fds := c.splitBag(bag)
		var out []int32
		subsets(attrs, func(y, rest []int) {
			permute(rest, func(co []int) {
				coCopy := append([]int(nil), co...)
				var candFC []int
				for _, fe := range fds {
					if contains(coCopy, c.rhs[c.fdOf[fe]]) {
						candFC = append(candFC, fe)
					}
				}
				subsets(fds, func(fy, _ []int) {
					// FY only contains FDs with rhs outside Y.
					for _, fe := range fy {
						if contains(y, c.rhs[c.fdOf[fe]]) {
							return
						}
					}
					fyCopy := append([]int(nil), fy...)
					dcCand := append([]int(nil), coCopy...)
					slices.Sort(dcCand)
					subsets(dcCand, func(dc, _ []int) {
						dcCopy := append([]int(nil), dc...)
						subsets(candFC, func(fc, _ []int) {
							if !c.consistent(fc, coCopy) {
								return
							}
							st := state{y: append([]int(nil), y...), co: coCopy, fy: fyCopy, dc: dcCopy, fc: append([]int(nil), fc...)}
							out = append(out, c.pool.intern(st))
						})
					})
				})
			})
		})
		return out
	}
	bags, err := nice.SortedBags()
	if err != nil {
		return nil, -1, err
	}
	successVar := -1
	var results []solver.Out[int32]
	for _, v := range nice.PostOrder() {
		n := nice.Nodes[v]
		bag := bags[v]
		switch n.Kind {
		case tree.KindLeaf:
			results = c.leafStates(results[:0], bag)
			for _, o := range results {
				prog.AddClause(id(v, o.State))
			}
		case tree.KindIntroduce, tree.KindForget, tree.KindCopy:
			child := n.Children[0]
			for _, cs := range allStates(bags[child]) {
				switch n.Kind {
				case tree.KindIntroduce:
					results = c.introduce(results[:0], bag, n.Elem, cs)
				case tree.KindForget:
					results = c.forget(results[:0], n.Elem, cs)
				default:
					results = append(results[:0], solver.Out[int32]{State: cs})
				}
				for _, o := range results {
					prog.AddClause(id(v, o.State), id(child, cs))
				}
			}
		case tree.KindBranch:
			states := allStates(bag)
			for _, s1 := range states {
				for _, s2 := range states {
					results = c.branch(results[:0], s1, s2)
					for _, o := range results {
						prog.AddClause(id(v, o.State), id(n.Children[0], s1), id(n.Children[1], s2))
					}
				}
			}
		default:
			return nil, -1, fmt.Errorf("primality: unexpected node kind %v", n.Kind)
		}
	}
	rootBag := bags[nice.Root]
	for _, s := range allStates(rootBag) {
		if c.accepting(rootBag, s, aElem) {
			if successVar < 0 {
				successVar = nextVar
				nextVar++
			}
			prog.AddClause(successVar, id(nice.Root, s))
		}
	}
	if prog.NumVars < nextVar {
		prog.NumVars = nextVar
	}
	return prog, successVar, nil
}

// Primes is a convenience wrapper: build an instance and enumerate.
func Primes(s *schema.Schema) (*bitset.Set, error) {
	return PrimesCtx(context.Background(), s)
}

// PrimesCtx is Primes with cancellation support.
func PrimesCtx(ctx context.Context, s *schema.Schema) (*bitset.Set, error) {
	in, err := NewInstanceCtx(ctx, s)
	if err != nil {
		return nil, err
	}
	return in.EnumerateCtx(ctx)
}

// IsPrime is a convenience wrapper for a single attribute decision.
func IsPrime(s *schema.Schema, attr string) (bool, error) {
	return IsPrimeCtx(context.Background(), s, attr)
}

// IsPrimeCtx is IsPrime with cancellation support.
func IsPrimeCtx(ctx context.Context, s *schema.Schema, attr string) (bool, error) {
	a, ok := s.Attr(attr)
	if !ok {
		return false, fmt.Errorf("primality: unknown attribute %s", attr)
	}
	in, err := NewInstanceCtx(ctx, s)
	if err != nil {
		return false, err
	}
	return in.DecideCtx(ctx, a)
}
