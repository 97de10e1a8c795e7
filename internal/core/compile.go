// Package core implements the paper's primary contribution: the generic
// transformation of MSO-definable unary queries over τ-structures of
// bounded treewidth into quasi-guarded monadic datalog programs over the
// extended signature τ_td (Theorem 4.5), together with the end-to-end
// evaluation pipeline (decompose → normalize → build τ_td → compile →
// quasi-guarded evaluation, Corollary 4.6).
//
// The construction enumerates MSO k-types of structures rooted at tree
// decomposition nodes: a bottom-up family Θ↑ (types of subtree-induced
// structures, Lemma 3.5), a top-down family Θ↓ (types of envelope-induced
// structures, Lemma 3.6), and an element-selection step combining both
// (Lemma 3.7). Each type becomes a monadic intensional predicate; each
// construction step becomes a datalog rule.
//
// As the paper stresses, the generic program is exponential in the formula
// size and the treewidth — the practical algorithms of Section 5 are
// hand-crafted instead (see internal/threecol and internal/primality).
// The compiler is therefore guarded by explicit resource limits and is
// exercised on small quantifier depths and widths.
package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/datalog"
	"repro/internal/mso"
	"repro/internal/msotype"
	"repro/internal/stage"
	"repro/internal/structure"
)

// Options configures Compile.
type Options struct {
	// Width is the treewidth w the program is compiled for; bags have
	// w+1 entries. Run overwrites it with the decomposition's
	// normalized width.
	Width int
	// RequestedWidth, when non-nil, makes Run fail unless the
	// decomposition's normalized width equals *RequestedWidth. A nil
	// pointer means "no assertion" — unlike a zero Width, which is a
	// legitimate width (trees of atoms). See Options.RequestWidth.
	RequestedWidth *int
	// QuantifierDepth is the rank k of the type construction. It must be
	// at least the quantifier depth of the target formula; if 0, the
	// formula's own depth is used.
	QuantifierDepth int
	// Decision compiles the 0-ary variant (Section 4's discussion): only
	// the bottom-up family Θ↑ is constructed and the goal predicate is
	// 0-ary. The target formula must then be a sentence.
	Decision bool
	// MaxWitnessDomain bounds witness-structure domains (type computation
	// enumerates subsets of the witness domain). Default 12.
	MaxWitnessDomain int
	// MaxTypes aborts compilation when more types than this are found.
	// Default 2000.
	MaxTypes int
	// MaxEDBSubsets bounds the 2^|R(ā)| case enumerations. Default 65536.
	MaxEDBSubsets int
	// EvalBudget caps the naive MSO evaluations on witness structures
	// during element selection (0 = unlimited).
	EvalBudget int64
	// Backend selects the evaluation backend: "" or DefaultBackend for
	// the automaton pipeline of this package, GameBackend for the
	// model-checking game. See CheckBackend.
	Backend string
}

func (o Options) withDefaults(phi *mso.Formula) Options {
	if o.QuantifierDepth == 0 {
		o.QuantifierDepth = phi.QuantifierDepth()
	}
	if o.MaxWitnessDomain == 0 {
		o.MaxWitnessDomain = 12
	}
	if o.MaxTypes == 0 {
		o.MaxTypes = 2000
	}
	if o.MaxEDBSubsets == 0 {
		o.MaxEDBSubsets = 1 << 16
	}
	return o
}

// Compiled is the result of Compile.
type Compiled struct {
	// Program is the quasi-guarded monadic datalog program over τ_td.
	Program *datalog.Program
	// QueryPred is the goal predicate: unary ("phi") for unary queries,
	// 0-ary for the decision variant.
	QueryPred string
	// Width and QuantifierDepth echo the effective parameters.
	Width           int
	QuantifierDepth int
	// UpTypes and DownTypes count the types of Θ↑ and Θ↓.
	UpTypes, DownTypes int
	// Grounder grounds Program for the τ_td functional dependencies of
	// Width (Theorem 4.4). It is built with the program, so its checks
	// run once per compiled program, however often it is evaluated.
	Grounder *datalog.Grounder
}

// witness is a structure (A, ā) — the W(ϑ) of the construction: A is the
// witness structure and bag the distinguished tuple (the bag of the
// distinguished node of its implicit tree decomposition).
type witness struct {
	st  *structure.Structure
	bag []int
}

type typeRec struct {
	name string
	wit  witness
}

type compiler struct {
	ctx   context.Context
	sig   *structure.Signature
	phi   *mso.Formula
	xVar  string
	opts  Options
	comp  *msotype.Computer
	rules map[string]bool
	prog  *datalog.Program

	up, down     []*typeRec
	upIDs        map[msotype.TypeID]*typeRec
	downIDs      map[msotype.TypeID]*typeRec
	freshCounter int
}

// Compile transforms the MSO formula phi with free element variable xVar
// (ignored in Decision mode) over the signature sig into an equivalent
// quasi-guarded monadic datalog program over τ_td for the given width.
// Only the automaton backend has a compiled form, so opts.Backend set
// to GameBackend is an error here.
func Compile(sig *structure.Signature, phi *mso.Formula, xVar string, opts Options) (*Compiled, error) {
	return CompileCtx(context.Background(), sig, phi, xVar, opts)
}

// CompileCtx is Compile with cancellation support: the saturation
// worklist, the EDB-subset enumerations and the witness MSO evaluations
// all poll ctx, so compilation of an over-large (k, w) combination can
// be abandoned promptly. A context error is returned wrapped in a
// *stage.Error tagged stage.Compile (or stage.MSOEval when the witness
// oracle observed it first).
func CompileCtx(ctx context.Context, sig *structure.Signature, phi *mso.Formula, xVar string, opts Options) (*Compiled, error) {
	backend, err := CheckBackend(opts.Backend)
	if err != nil {
		return nil, err
	}
	if backend == GameBackend {
		return nil, fmt.Errorf("core: the game backend evaluates lazily and has no compiled datalog form (compile with the automaton backend)")
	}
	opts = opts.withDefaults(phi)
	if k := phi.QuantifierDepth(); opts.QuantifierDepth < k {
		return nil, fmt.Errorf("core: quantifier depth %d below formula depth %d", opts.QuantifierDepth, k)
	}
	free := xVar
	if opts.Decision {
		free = ""
	}
	if err := phi.CheckFree(free); err != nil {
		return nil, fmt.Errorf("core: %v", err)
	}
	mc := msotype.NewComputer()
	mc.MaxDomain = opts.MaxWitnessDomain
	mc.Budget = stage.BudgetFrom(ctx)
	c := &compiler{
		ctx:     ctx,
		sig:     sig,
		phi:     phi,
		xVar:    xVar,
		opts:    opts,
		comp:    mc,
		rules:   map[string]bool{},
		prog:    &datalog.Program{},
		upIDs:   map[msotype.TypeID]*typeRec{},
		downIDs: map[msotype.TypeID]*typeRec{},
	}
	if err := c.saturate(true); err != nil {
		return nil, err
	}
	if opts.Decision {
		if err := c.emitDecision(); err != nil {
			return nil, err
		}
	} else {
		if err := c.saturate(false); err != nil {
			return nil, err
		}
		if err := c.emitSelection(); err != nil {
			return nil, err
		}
	}
	gr, err := datalog.NewGrounder(c.prog, datalog.TDFuncDeps(opts.Width))
	if err != nil {
		return nil, fmt.Errorf("core: compiled program is not quasi-guarded: %w", err)
	}
	return &Compiled{
		Program:         c.prog,
		QueryPred:       "phi",
		Width:           opts.Width,
		QuantifierDepth: opts.QuantifierDepth,
		UpTypes:         len(c.up),
		DownTypes:       len(c.down),
		Grounder:        gr,
	}, nil
}

// ---- type bookkeeping ----

func (c *compiler) registerType(up bool, wit witness) (*typeRec, bool, error) {
	id, err := c.comp.Type(wit.st, wit.bag, c.opts.QuantifierDepth)
	if err != nil {
		return nil, false, err
	}
	ids := c.upIDs
	prefix := "tu"
	if !up {
		ids = c.downIDs
		prefix = "td"
	}
	if rec, ok := ids[id]; ok {
		return rec, false, nil
	}
	if len(c.up)+len(c.down) >= c.opts.MaxTypes {
		return nil, false, fmt.Errorf("core: type limit %d exceeded (reduce k or w, or raise MaxTypes)", c.opts.MaxTypes)
	}
	rec := &typeRec{wit: wit}
	if up {
		rec.name = fmt.Sprintf("%s%d", prefix, len(c.up))
		c.up = append(c.up, rec)
	} else {
		rec.name = fmt.Sprintf("%s%d", prefix, len(c.down))
		c.down = append(c.down, rec)
	}
	ids[id] = rec
	return rec, true, nil
}

func (c *compiler) addRule(r datalog.Rule) {
	key := r.String()
	if c.rules[key] {
		return
	}
	c.rules[key] = true
	c.prog.Rules = append(c.prog.Rules, r)
}

// ---- atom enumeration over a bag ----

// bagAtom is a prototype ground atom over bag positions.
type bagAtom struct {
	pred string
	pos  []int // positions into the bag, 0..w
}

// allBagAtoms enumerates R(ā): every predicate applied to every
// combination of bag positions.
func (c *compiler) allBagAtoms() []bagAtom {
	w := c.opts.Width
	var out []bagAtom
	for _, p := range c.sig.Predicates() {
		idx := make([]int, p.Arity)
		var rec func(d int)
		rec = func(d int) {
			if d == p.Arity {
				out = append(out, bagAtom{pred: p.Name, pos: append([]int(nil), idx...)})
				return
			}
			for i := 0; i <= w; i++ {
				idx[d] = i
				rec(d + 1)
			}
		}
		rec(0)
	}
	return out
}

// holdsOn reports whether the prototype atom holds in st on the tuple bag.
func holdsOn(st *structure.Structure, bag []int, a bagAtom) bool {
	args := make([]int, len(a.pos))
	for i, p := range a.pos {
		args[i] = bag[p]
	}
	return st.Has(a.pred, args...)
}

// literalFor renders the prototype atom as a datalog literal over the
// variables X0..Xw.
func literalFor(a bagAtom, neg bool) datalog.Atom {
	args := make([]datalog.Term, len(a.pos))
	for i, p := range a.pos {
		args[i] = datalog.V(xVarName(p))
	}
	at := datalog.NewAtom(a.pred, args...)
	if neg {
		at = at.Not()
	}
	return at
}

func xVarName(i int) string { return fmt.Sprintf("X%d", i) }

func bagVars(w int) []datalog.Term {
	out := make([]datalog.Term, w+1)
	for i := range out {
		out[i] = datalog.V(xVarName(i))
	}
	return out
}

func bagAtomOf(node string, vars []datalog.Term) datalog.Atom {
	args := append([]datalog.Term{datalog.V(node)}, vars...)
	return datalog.NewAtom("bag", args...)
}

// edbLiterals renders the full positive/negative description of the bag's
// atoms as they hold in st.
func (c *compiler) edbLiterals(st *structure.Structure, bag []int) []datalog.Atom {
	var out []datalog.Atom
	for _, a := range c.allBagAtoms() {
		out = append(out, literalFor(a, !holdsOn(st, bag, a)))
	}
	return out
}

// ---- witness construction helpers ----

func (c *compiler) freshElemName() string {
	c.freshCounter++
	return fmt.Sprintf("w%d", c.freshCounter)
}

// baseWitnesses enumerates all structures on a single full bag: every
// subset of R(ā) as the EDB (the BASE CASE of both constructions).
func (c *compiler) baseWitnesses() ([]witness, error) {
	w := c.opts.Width
	atoms := c.allBagAtoms()
	if len(atoms) > 30 || 1<<uint(len(atoms)) > c.opts.MaxEDBSubsets {
		return nil, fmt.Errorf("core: |R(ā)| = %d atoms gives too many EDB subsets (limit %d)", len(atoms), c.opts.MaxEDBSubsets)
	}
	var out []witness
	for mask := 0; mask < 1<<uint(len(atoms)); mask++ {
		if mask&255 == 0 {
			if err := c.ctx.Err(); err != nil {
				return nil, stage.Wrap(stage.Compile, err)
			}
		}
		st := structure.New(c.sig)
		bag := make([]int, w+1)
		for i := range bag {
			bag[i] = st.AddElem(fmt.Sprintf("b%d", i))
		}
		ok := true
		for ai, a := range atoms {
			if mask&(1<<uint(ai)) == 0 {
				continue
			}
			args := make([]int, len(a.pos))
			for i, p := range a.pos {
				args[i] = bag[p]
			}
			if err := st.AddTuple(a.pred, args...); err != nil {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, witness{st: st, bag: bag})
		}
	}
	return out, nil
}

// replacementExtensions enumerates the structures obtained from wit by
// adding one fresh element at bag position 0 and any set of new atoms
// involving it (the element replacement INDUCTION STEP).
func (c *compiler) replacementExtensions(wit witness) ([]witness, error) {
	if wit.st.Size()+1 > c.opts.MaxWitnessDomain {
		return nil, fmt.Errorf("core: witness domain would exceed %d elements; raise MaxWitnessDomain or reduce k/w", c.opts.MaxWitnessDomain)
	}
	// Atoms involving position 0.
	var newAtoms []bagAtom
	for _, a := range c.allBagAtoms() {
		for _, p := range a.pos {
			if p == 0 {
				newAtoms = append(newAtoms, a)
				break
			}
		}
	}
	if 1<<uint(len(newAtoms)) > c.opts.MaxEDBSubsets {
		return nil, fmt.Errorf("core: %d replacement atoms gives too many subsets", len(newAtoms))
	}
	var out []witness
	for mask := 0; mask < 1<<uint(len(newAtoms)); mask++ {
		if mask&255 == 0 {
			if err := c.ctx.Err(); err != nil {
				return nil, stage.Wrap(stage.Compile, err)
			}
		}
		st := wit.st.Clone()
		fresh := st.AddElem(c.freshElemName())
		bag := append([]int{fresh}, wit.bag[1:]...)
		for ai, a := range newAtoms {
			if mask&(1<<uint(ai)) == 0 {
				continue
			}
			args := make([]int, len(a.pos))
			for i, p := range a.pos {
				args[i] = bag[p]
			}
			if err := st.AddTuple(a.pred, args...); err != nil {
				return nil, err
			}
		}
		out = append(out, witness{st: st, bag: bag})
	}
	return out, nil
}

// bagCompatible reports whether two witnesses agree on all atoms over
// their bags (the "EDBs are consistent" check of the construction).
func (c *compiler) bagCompatible(w1, w2 witness) bool {
	for _, a := range c.allBagAtoms() {
		if holdsOn(w1.st, w1.bag, a) != holdsOn(w2.st, w2.bag, a) {
			return false
		}
	}
	return true
}

// merge identifies the bag of w2 with the bag of w1 (the renaming δ) and
// unions the structures; all non-bag elements of w2 become fresh.
func (c *compiler) merge(w1, w2 witness) (witness, error) {
	extra := w2.st.Size() - len(w2.bag)
	if w1.st.Size()+extra > c.opts.MaxWitnessDomain {
		return witness{}, fmt.Errorf("core: merged witness would exceed %d elements; raise MaxWitnessDomain or reduce k/w", c.opts.MaxWitnessDomain)
	}
	st := w1.st.Clone()
	mapping := make(map[int]int, w2.st.Size())
	for i, e := range w2.bag {
		mapping[e] = w1.bag[i]
	}
	for e := 0; e < w2.st.Size(); e++ {
		if _, ok := mapping[e]; !ok {
			mapping[e] = st.AddElem(c.freshElemName())
		}
	}
	for _, p := range c.sig.Predicates() {
		for _, t := range w2.st.Tuples(p.Name) {
			args := make([]int, len(t))
			for i, e := range t {
				args[i] = mapping[e]
			}
			if err := st.AddTuple(p.Name, args...); err != nil {
				return witness{}, err
			}
		}
	}
	return witness{st: st, bag: append([]int(nil), w1.bag...)}, nil
}

// permutations enumerates all permutations of 0..w.
func permutations(w int) [][]int {
	idx := make([]int, w+1)
	for i := range idx {
		idx[i] = i
	}
	var out [][]int
	var rec func(k int)
	rec = func(k int) {
		if k == len(idx) {
			out = append(out, append([]int(nil), idx...))
			return
		}
		for i := k; i < len(idx); i++ {
			idx[k], idx[i] = idx[i], idx[k]
			rec(k + 1)
			idx[k], idx[i] = idx[i], idx[k]
		}
	}
	rec(0)
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}
