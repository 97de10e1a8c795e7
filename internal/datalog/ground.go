package datalog

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/datalog/ra"
	"repro/internal/faultinject"
	"repro/internal/horn"
	"repro/internal/stage"
)

// FuncDep declares that, in every tuple of Pred, the values at the From
// positions uniquely determine the values at the To positions. These are
// the "functional dependence" facts of Definition 4.3: e.g. in
// child1(v1, v), each of v1 and v determines the other, and in
// bag(v, x0, …, xw) the node v determines the entire bag.
type FuncDep struct {
	Pred string
	From []int
	To   []int
}

// TDFuncDeps returns the functional dependencies of the τ_td predicates of
// Section 4 for width w, which make the programs of Theorem 4.5
// quasi-guarded.
func TDFuncDeps(w int) []FuncDep {
	bagTo := make([]int, w+1)
	for i := range bagTo {
		bagTo[i] = i + 1
	}
	return []FuncDep{
		{Pred: "child1", From: []int{1}, To: []int{0}},
		{Pred: "child1", From: []int{0}, To: []int{1}},
		{Pred: "child2", From: []int{1}, To: []int{0}},
		{Pred: "child2", From: []int{0}, To: []int{1}},
		{Pred: "bag", From: []int{0}, To: bagTo},
	}
}

// QuasiGuards returns, for every rule, the index of a body atom that is a
// quasi-guard (Definition 4.3): an extensional positive atom such that
// every rule variable either occurs in it or is functionally dependent on
// its variables via the declared FuncDeps. Returns an error naming the
// first rule without a quasi-guard.
func QuasiGuards(p *Program, fds []FuncDep) ([]int, error) {
	intens := p.IntensionalPreds()
	fdsByPred := map[string][]FuncDep{}
	for _, fd := range fds {
		fdsByPred[fd.Pred] = append(fdsByPred[fd.Pred], fd)
	}
	guards := make([]int, len(p.Rules))
	for ri, r := range p.Rules {
		guards[ri] = -1
		allVars := map[string]bool{}
		for _, t := range r.Head.Args {
			if t.IsVar() {
				allVars[t.Var] = true
			}
		}
		for _, a := range r.Body {
			for _, t := range a.Args {
				if t.IsVar() {
					allVars[t.Var] = true
				}
			}
		}
		if len(allVars) == 0 {
			guards[ri] = -2 // ground rule: trivially quasi-guarded, no guard needed
			continue
		}
		for bi, b := range r.Body {
			if b.Negated || intens[b.Pred] || IsBuiltin(b.Pred) {
				continue
			}
			known := map[string]bool{}
			for _, t := range b.Args {
				if t.IsVar() {
					known[t.Var] = true
				}
			}
			// Close under functional dependence through positive
			// extensional body atoms.
			for changed := true; changed; {
				changed = false
				for _, a := range r.Body {
					if a.Negated || intens[a.Pred] {
						continue
					}
					for _, fd := range fdsByPred[a.Pred] {
						if len(a.Args) <= maxPos(fd) {
							continue
						}
						fromKnown := true
						for _, pos := range fd.From {
							if t := a.Args[pos]; t.IsVar() && !known[t.Var] {
								fromKnown = false
								break
							}
						}
						if !fromKnown {
							continue
						}
						for _, pos := range fd.To {
							if t := a.Args[pos]; t.IsVar() && !known[t.Var] {
								known[t.Var] = true
								changed = true
							}
						}
					}
				}
			}
			covered := true
			for v := range allVars {
				if !known[v] {
					covered = false
					break
				}
			}
			if covered {
				guards[ri] = bi
				break
			}
		}
		if guards[ri] == -1 {
			return nil, fmt.Errorf("datalog: rule %d has no quasi-guard: %s", ri, r)
		}
	}
	return guards, nil
}

func maxPos(fd FuncDep) int {
	m := 0
	for _, p := range fd.From {
		if p > m {
			m = p
		}
	}
	for _, p := range fd.To {
		if p > m {
			m = p
		}
	}
	return m
}

// GroundProgram is the propositional program produced by grounding a
// quasi-guarded datalog program over a database, together with the
// interning table of ground intensional atoms.
type GroundProgram struct {
	Horn  *horn.Program
	atoms []groundAtom
	slots []int32 // open-addressed atom table: atom ID+1 per slot, 0 = empty
	db    *DB
	// budget, when non-nil, caps len(atoms) at MaxGroundAtoms: the
	// check fires per newly interned atom, so an over-budget grounding
	// aborts in memory proportional to the cap, not the blowup.
	budget    *stage.Budget
	budgetErr error
	// arena is the chunk interned atoms' tuples are carved from.
	arena []int
}

type groundAtom struct {
	pred  string
	tuple []int
}

// atomHash hashes a (pred, tuple) pair FNV-style without building a
// string key.
func atomHash(pred string, tuple []int) uint64 {
	h := fnvOffset64
	for i := 0; i < len(pred); i++ {
		h ^= uint64(pred[i])
		h *= fnvPrime64
	}
	h ^= uint64(len(pred)) // separate predicate bytes from tuple words
	h *= fnvPrime64
	for _, v := range tuple {
		h ^= uint64(v)
		h *= fnvPrime64
	}
	return h
}

// atomID interns a ground atom. The table probes linearly and compares
// atoms structurally, like relation's dedup table. A budget violation is
// recorded in g.budgetErr (checked by the grounding loop) rather than
// returned, so the hot path keeps its int-only signature.
func (g *GroundProgram) atomID(pred string, tuple []int) int {
	if 2*(len(g.atoms)+1) > len(g.slots) {
		g.grow()
	}
	mask := uint64(len(g.slots) - 1)
	i := atomHash(pred, tuple) & mask
	for id := g.slots[i]; id != 0; id = g.slots[i] {
		if a := &g.atoms[id-1]; a.pred == pred && equalTuple(a.tuple, tuple) {
			return int(id - 1)
		}
		i = (i + 1) & mask
	}
	if g.budgetErr == nil {
		if err := g.budget.AddGroundAtoms(1); err != nil {
			g.budgetErr = stage.Wrap(stage.Eval, err)
		}
	}
	n := len(tuple)
	if len(g.arena) < n {
		g.arena = make([]int, 4096+n)
	}
	t := g.arena[:n:n]
	g.arena = g.arena[n:]
	copy(t, tuple)
	if len(g.atoms) == cap(g.atoms) {
		// Double, where append grows a large slice by a quarter and so
		// copies it about four times over.
		g.atoms = append(make([]groundAtom, 0, 2*cap(g.atoms)+256), g.atoms...)
	}
	g.atoms = append(g.atoms, groundAtom{pred: pred, tuple: t})
	g.slots[i] = int32(len(g.atoms))
	return len(g.atoms) - 1
}

// grow rebuilds the atom table at double capacity.
func (g *GroundProgram) grow() {
	n := 2 * len(g.slots)
	if n < 1024 {
		n = 1024
	}
	slots := make([]int32, n)
	mask := uint64(n - 1)
	for id, a := range g.atoms {
		i := atomHash(a.pred, a.tuple) & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = int32(id + 1)
	}
	g.slots = slots
}

// NumAtoms returns the number of distinct ground intensional atoms.
func (g *GroundProgram) NumAtoms() int { return len(g.atoms) }

// Size returns the ground program size (|P'| of Theorem 4.4).
func (g *GroundProgram) Size() int { return g.Horn.Size() }

// Grounder grounds one quasi-guarded, semipositive program over any
// number of databases (Theorem 4.4). NewGrounder runs the program-level
// checks — Validate, semipositivity and QuasiGuards — once and keeps
// what grounding needs from them: each rule's guard and whether each
// body atom is extensional, intensional or a builtin. Ground then only
// instantiates. It plans every rule per call, over numbered variable
// slots, into scratch reused from rule to rule, so a Grounder holds
// nothing per rule beyond its guard index and a byte per body atom.
//
// A Grounder is immutable and safe for concurrent use. The program must
// not be modified after NewGrounder.
type Grounder struct {
	prog   *Program
	guards []int
	kinds  []stepKind // every rule's body atoms in turn: stepTest, stepLit or stepBuiltin
}

// NewGrounder checks that p is a valid, semipositive program with a
// quasi-guard in every rule under fds, and prepares it for grounding.
func NewGrounder(p *Program, fds []FuncDep) (*Grounder, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	intens := p.IntensionalPreds()
	var kinds []stepKind
	for _, r := range p.Rules {
		for _, a := range r.Body {
			switch {
			case a.Negated && intens[a.Pred]:
				return nil, fmt.Errorf("datalog: quasi-guarded evaluation requires semipositive programs; rule %s negates intensional %s", r, a.Pred)
			case IsBuiltin(a.Pred):
				kinds = append(kinds, stepBuiltin)
			case intens[a.Pred]:
				kinds = append(kinds, stepLit)
			default:
				kinds = append(kinds, stepTest)
			}
		}
	}
	guards, err := QuasiGuards(p, fds)
	if err != nil {
		return nil, err
	}
	return &Grounder{prog: p, guards: guards, kinds: kinds}, nil
}

// Ground instantiates the program over edb (Theorem 4.4): each rule is
// joined from its quasi-guard against the EDB and its remaining
// variables follow by functional dependence; fully bound extensional
// literals are decided on the spot and intensional literals become
// propositional variables. The result has size O(|P|·|A|). Program
// constants are interned into edb.
//
// The rule loop and every 1024 instantiation steps poll ctx; a context
// error comes back wrapped in a *stage.Error tagged stage.Eval, and so
// does a violation of the MaxGroundAtoms budget attached to ctx.
func (gr *Grounder) Ground(ctx context.Context, edb *DB) (*GroundProgram, error) {
	g := &GroundProgram{Horn: &horn.Program{}, db: edb, budget: stage.BudgetFrom(ctx)}
	s := &grounding{ctx: ctx, g: g, edb: edb}
	kinds := gr.kinds
	for ri, r := range gr.prog.Rules {
		if err := ctx.Err(); err != nil {
			return nil, stage.Wrap(stage.Eval, err)
		}
		if err := faultinject.Check("datalog.ground-rule"); err != nil {
			return nil, stage.Wrap(stage.Eval, err)
		}
		if err := s.plan(r, gr.guards[ri], kinds[:len(r.Body)]); err != nil {
			return nil, err
		}
		kinds = kinds[len(r.Body):]
		if err := s.run(0); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Eval grounds the program over edb and solves the ground program by
// linear-time unit resolution, realizing the O(|P|·|A|) bound of
// Theorem 4.4. The result is a copy of edb plus every derived
// intensional fact; cancellation is as for Ground.
func (gr *Grounder) Eval(ctx context.Context, edb *DB) (*DB, error) {
	g, err := gr.Ground(ctx, edb)
	if err != nil {
		return nil, err
	}
	truth := g.Horn.Solve()
	// The derived tuples move into one right-sized array rather than
	// keeping g's arena chunks alive for as long as the result is cached.
	n := 0
	for id, tv := range truth {
		if tv {
			n += len(g.atoms[id].tuple)
		}
	}
	flat := make([]int, n)
	out := edb.Clone()
	for id, tv := range truth {
		if tv {
			a := g.atoms[id]
			t := flat[:len(a.tuple):len(a.tuple)]
			flat = flat[len(a.tuple):]
			copy(t, a.tuple)
			out.rel(a.pred, len(t)).insertOwned(t)
		}
	}
	return out, nil
}

// Ground instantiates a quasi-guarded, semipositive program over the
// database; see Grounder.Ground.
func Ground(p *Program, edb *DB, fds []FuncDep) (*GroundProgram, error) {
	return GroundCtx(context.Background(), p, edb, fds)
}

// GroundCtx is Ground with cancellation support (see Grounder.Ground).
func GroundCtx(ctx context.Context, p *Program, edb *DB, fds []FuncDep) (*GroundProgram, error) {
	gr, err := NewGrounder(p, fds)
	if err != nil {
		return nil, err
	}
	return gr.Ground(ctx, edb)
}

// EvalQuasiGuarded evaluates a quasi-guarded semipositive program by
// grounding followed by linear-time unit resolution (see Grounder.Eval).
// The result contains the EDB plus all derived intensional facts.
func EvalQuasiGuarded(p *Program, edb *DB, fds []FuncDep) (*DB, error) {
	return EvalQuasiGuardedCtx(context.Background(), p, edb, fds)
}

// EvalQuasiGuardedCtx is EvalQuasiGuarded with cancellation support
// (see Grounder.Ground); unit resolution itself is linear and runs to
// completion once grounding has succeeded.
func EvalQuasiGuardedCtx(ctx context.Context, p *Program, edb *DB, fds []FuncDep) (*DB, error) {
	gr, err := NewGrounder(p, fds)
	if err != nil {
		return nil, err
	}
	return gr.Eval(ctx, edb)
}

// A rule plan is a sequence of steps, one per body atom, over variable
// slots numbered in the order the steps bind them.
type stepKind uint8

const (
	stepJoin    stepKind = iota // enumerate a positive extensional atom
	stepTest                    // decide a bound extensional atom
	stepBuiltin                 // decide a bound builtin
	stepLit                     // a bound intensional atom: a body literal
)

type groundStep struct {
	kind    stepKind
	negated bool
	pred    string
	rel     *relation // stepJoin, stepTest: nil for an empty relation
	args    []gArg
}

// gArg is one argument of a planned atom: a constant's ID, or a slot
// with how the atom meets it — bound by an earlier step, bound here (a
// join's first occurrence of the variable), or a repeat of that first
// occurrence within the same join atom.
type gArg struct {
	kind argKind
	v    int // constant ID or slot
}

type argKind uint8

const (
	argConst argKind = iota
	argBound
	argFresh
	argRepeat
)

// grounding is the state of one Grounder.Ground call: the ground
// program being built, and the current rule's plan and binding, whose
// buffers are reused from rule to rule.
type grounding struct {
	ctx  context.Context
	g    *GroundProgram
	edb  *DB
	tick uint

	// The layout's view of the rule: variables numbered by first
	// occurrence, each argument's variable number (-1 for a constant),
	// where each atom's arguments end (the head last), and each
	// variable's slot, or -1 while no step binds it.
	varNames  []string
	argVar    []int
	atomEnd   []int
	varSlot   []int
	nslots    int
	processed []bool

	steps    []groundStep
	cands    []ra.Candidates // step → its current probe's candidates (joins)
	args     []gArg          // backing store of the plan's argument lists
	head     []gArg
	headPred string
	binding  []int    // slot → constant ID; a step reads only slots bound before it
	lits     []int    // the current instance's intensional body literals
	tuple    []int    // probe pattern / ground arguments
	names    []string // builtin arguments
}

// plan lays rule r out as steps: a fully bound atom first, in body
// order; otherwise a join on a positive extensional atom — the
// quasi-guard while it is pending, else the first one sharing a bound
// variable, else the first one. Starting at the guard bounds each
// rule's instances by the guard's tuples, where a join from an earlier
// body atom could enumerate a cross product first. The order fixes the
// clause order and atom numbering of the ground program, which tests
// pin.
func (s *grounding) plan(r Rule, guard int, kinds []stepKind) error {
	s.varNames, s.argVar, s.atomEnd = s.varNames[:0], s.argVar[:0], s.atomEnd[:0]
	for i := 0; i <= len(r.Body); i++ {
		a := r.Head
		if i < len(r.Body) {
			a = r.Body[i]
		}
		for _, t := range a.Args {
			s.argVar = append(s.argVar, s.varNum(t))
		}
		s.atomEnd = append(s.atomEnd, len(s.argVar))
	}
	s.varSlot = s.varSlot[:0]
	for range s.varNames {
		s.varSlot = append(s.varSlot, -1)
	}
	s.nslots = 0
	s.processed = append(s.processed[:0], make([]bool, len(r.Body))...)
	s.steps, s.args = s.steps[:0], s.args[:0]
	for range r.Body {
		next, join := -1, false
		for i := range r.Body {
			if s.processed[i] {
				continue
			}
			if _, unbound := s.varCounts(i); unbound == 0 {
				next = i
				break
			}
		}
		if next < 0 {
			join = true
			if guard >= 0 && !s.processed[guard] {
				next = guard
			} else {
				for i, a := range r.Body {
					if s.processed[i] || a.Negated || kinds[i] != stepTest {
						continue
					}
					if next < 0 {
						next = i
					}
					if bound, _ := s.varCounts(i); bound > 0 {
						next = i
						break
					}
				}
			}
			if next < 0 {
				// Impossible for validated quasi-guarded programs.
				return fmt.Errorf("datalog: cannot ground rule %s: intensional atom with unbound variables", r)
			}
		}
		s.processed[next] = true
		a := r.Body[next]
		st := groundStep{kind: kinds[next], negated: a.Negated, pred: a.Pred, args: s.planArgs(a.Args, next)}
		if join {
			st.kind = stepJoin
		}
		if rel := s.edb.rels[a.Pred]; rel != nil && rel.arity == len(a.Args) && (st.kind == stepJoin || st.kind == stepTest) {
			// A relation of another arity holds no tuple the atom matches.
			st.rel = rel
		}
		s.steps = append(s.steps, st)
	}
	s.headPred = r.Head.Pred
	s.head = s.planArgs(r.Head.Args, len(r.Body))
	if len(s.cands) < len(s.steps) {
		s.cands = make([]ra.Candidates, len(s.steps))
	}
	if cap(s.binding) < s.nslots {
		s.binding = make([]int, s.nslots)
	}
	s.binding = s.binding[:s.nslots]
	return nil
}

// varNum returns the term's variable number, numbering a new variable,
// or -1 for a constant.
func (s *grounding) varNum(t Term) int {
	if !t.IsVar() {
		return -1
	}
	for i, w := range s.varNames {
		if w == t.Var {
			return i
		}
	}
	s.varNames = append(s.varNames, t.Var)
	return len(s.varNames) - 1
}

// atomArgs returns the variable numbers of atom i's arguments (the
// head's for i = len(body)).
func (s *grounding) atomArgs(i int) []int {
	start := 0
	if i > 0 {
		start = s.atomEnd[i-1]
	}
	return s.argVar[start:s.atomEnd[i]]
}

// varCounts counts atom i's variable occurrences that the steps so far
// bind and those they do not.
func (s *grounding) varCounts(i int) (bound, unbound int) {
	for _, v := range s.atomArgs(i) {
		switch {
		case v < 0:
		case s.varSlot[v] < 0:
			unbound++
		default:
			bound++
		}
	}
	return bound, unbound
}

// planArgs appends atom i's arguments to the plan, giving its unbound
// variables the next slots.
func (s *grounding) planArgs(terms []Term, i int) []gArg {
	start, bound := len(s.args), s.nslots
	for j, v := range s.atomArgs(i) {
		if v < 0 {
			s.args = append(s.args, gArg{kind: argConst, v: s.edb.Intern(terms[j].Const)})
			continue
		}
		a := gArg{kind: argBound, v: s.varSlot[v]}
		switch {
		case a.v < 0:
			a = gArg{kind: argFresh, v: s.nslots}
			s.varSlot[v] = s.nslots
			s.nslots++
		case a.v >= bound:
			a.kind = argRepeat
		}
		s.args = append(s.args, a)
	}
	return s.args[start:len(s.args):len(s.args)]
}

// run extends the current instance by plan step k and recurses; past
// the last step it emits the instance's clause. It polls the context
// every 1024 calls.
func (s *grounding) run(k int) error {
	if s.tick++; s.tick&1023 == 0 {
		if err := s.ctx.Err(); err != nil {
			return stage.Wrap(stage.Eval, err)
		}
	}
	if k == len(s.steps) {
		head := s.g.atomID(s.headPred, s.ground(s.head))
		if s.g.budgetErr != nil {
			return s.g.budgetErr
		}
		s.g.Horn.AddClause(head, s.lits...)
		return nil
	}
	st := &s.steps[k]
	switch st.kind {
	case stepJoin:
		return s.join(k, st)
	case stepLit:
		lit := s.g.atomID(st.pred, s.ground(st.args))
		if s.g.budgetErr != nil {
			return s.g.budgetErr
		}
		s.lits = append(s.lits, lit)
		err := s.run(k + 1)
		s.lits = s.lits[:len(s.lits)-1]
		return err
	case stepBuiltin:
		s.names = s.names[:0]
		for _, id := range s.ground(st.args) {
			s.names = append(s.names, s.edb.ConstName(id))
		}
		holds, err := callBuiltin(st.pred, s.names)
		if err != nil {
			return err
		}
		if holds == st.negated {
			return nil
		}
		return s.run(k + 1)
	default:
		if holds := st.rel != nil && st.rel.has(s.ground(st.args)); holds == st.negated {
			return nil
		}
		return s.run(k + 1)
	}
}

// join enumerates the tuples of step k's atom that agree with the
// current binding. The relation is probed zero-copy on the bound
// positions; as a probe may answer from an index on a subset of them,
// each candidate is re-checked on every constant, bound and repeated
// position while its fresh positions are bound.
func (s *grounding) join(k int, st *groundStep) error {
	if st.rel == nil {
		return nil
	}
	pat := s.tuple[:0]
	for _, a := range st.args {
		switch a.kind {
		case argConst:
			pat = append(pat, a.v)
		case argBound:
			pat = append(pat, s.binding[a.v])
		default:
			pat = append(pat, -1)
		}
	}
	s.tuple = pat
	cand := &s.cands[k]
	st.rel.probe(pat, cand)
	for i, n := 0, cand.Len(); i < n; i++ {
		if !s.unify(st.args, cand.At(i)) {
			continue
		}
		if err := s.run(k + 1); err != nil {
			return err
		}
	}
	return nil
}

// unify binds the fresh positions of args to t's values and reports
// whether t agrees with args everywhere else.
func (s *grounding) unify(args []gArg, t []int) bool {
	for j, a := range args {
		switch a.kind {
		case argConst:
			if t[j] != a.v {
				return false
			}
		case argFresh:
			s.binding[a.v] = t[j]
		default:
			if t[j] != s.binding[a.v] {
				return false
			}
		}
	}
	return true
}

// ground writes the atom's ground arguments under the current binding
// into the shared tuple buffer.
func (s *grounding) ground(args []gArg) []int {
	t := s.tuple[:0]
	for _, a := range args {
		if a.kind == argConst {
			t = append(t, a.v)
		} else {
			t = append(t, s.binding[a.v])
		}
	}
	s.tuple = t
	return t
}

// Facts lists the true ground atoms of pred under the given truth
// assignment, sorted; a helper for tests and tools.
func (g *GroundProgram) Facts(truth []bool, pred string) [][]string {
	var out [][]string
	for id, tv := range truth {
		if !tv || g.atoms[id].pred != pred {
			continue
		}
		names := make([]string, len(g.atoms[id].tuple))
		for i, e := range g.atoms[id].tuple {
			names[i] = g.db.ConstName(e)
		}
		out = append(out, names)
	}
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
