package datalog

import (
	"context"
	"fmt"
	"sort"

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
	byPred := fdIndex(fds)
	var s grounding
	var kinds []stepKind
	guards := make([]int, len(p.Rules))
	for ri, r := range p.Rules {
		kinds = kinds[:0]
		for _, a := range r.Body {
			kinds = append(kinds, atomKind(a.Pred, intens))
		}
		s.layout(r)
		if guards[ri] = s.quasiGuard(r, kinds, intens, byPred); guards[ri] == -1 {
			return nil, fmt.Errorf("datalog: rule %d has no quasi-guard: %s", ri, r)
		}
	}
	return guards, nil
}

// atomKind classifies a body atom's predicate as a builtin, an
// intensional literal or an extensional test.
func atomKind(pred string, intens map[string]bool) stepKind {
	switch {
	case IsBuiltin(pred):
		return stepBuiltin
	case intens[pred]:
		return stepLit
	default:
		return stepTest
	}
}

func fdIndex(fds []FuncDep) map[string][]FuncDep {
	byPred := map[string][]FuncDep{}
	for _, fd := range fds {
		byPred[fd.Pred] = append(byPred[fd.Pred], fd)
	}
	return byPred
}

// quasiGuard returns the index of rule r's first quasi-guard over the
// variable numbering s.layout(r) computed, -2 for a rule without
// variables (trivially quasi-guarded, no guard needed), or -1 if it has
// none. kinds classifies the rule's body atoms (see atomKind).
func (s *grounding) quasiGuard(r Rule, kinds []stepKind, intens map[string]bool, byPred map[string][]FuncDep) int {
	if len(s.varNames) == 0 {
		return -2
	}
	// The dependencies usable for the closure: those of positive
	// extensional body atoms.
	s.fdAtoms = s.fdAtoms[:0]
	for i, a := range r.Body {
		if a.Negated || kinds[i] == stepLit || kinds[i] == stepBuiltin && intens[a.Pred] {
			continue
		}
		for j := range byPred[a.Pred] {
			if fd := &byPred[a.Pred][j]; len(a.Args) > maxPos(*fd) {
				s.fdAtoms = append(s.fdAtoms, atomFD{atom: i, fd: fd})
			}
		}
	}
	for bi, b := range r.Body {
		if b.Negated || kinds[bi] != stepTest {
			continue
		}
		known := append(s.known[:0], make([]bool, len(s.varNames))...)
		s.known = known
		for _, v := range s.atomArgs(bi) {
			if v >= 0 {
				known[v] = true
			}
		}
		// Close under functional dependence.
		for changed := true; changed; {
			changed = false
			for _, af := range s.fdAtoms {
				args := s.atomArgs(af.atom)
				fromKnown := true
				for _, pos := range af.fd.From {
					if v := args[pos]; v >= 0 && !known[v] {
						fromKnown = false
						break
					}
				}
				if !fromKnown {
					continue
				}
				for _, pos := range af.fd.To {
					if v := args[pos]; v >= 0 && !known[v] {
						known[v] = true
						changed = true
					}
				}
			}
		}
		covered := true
		for _, k := range known {
			if !k {
				covered = false
				break
			}
		}
		if covered {
			return bi
		}
	}
	return -1
}

// atomFD is a functional dependency of one body atom.
type atomFD struct {
	atom int
	fd   *FuncDep
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
	Horn *horn.Program
	// atoms lists the interned ground atoms by ID; their tuples lie back
	// to back in args, so an atom costs 8 bytes and no slice header.
	atoms []groundAtom
	args  []int32
	preds []string // intensional predicates by ID
	slots []int32  // open-addressed atom table: atom ID+1 per slot, 0 = empty
	db    *DB
	// budget, when non-nil, caps len(atoms) at MaxGroundAtoms: the
	// check fires per newly interned atom, so an over-budget grounding
	// aborts in memory proportional to the cap, not the blowup.
	budget    *stage.Budget
	budgetErr error
}

// groundAtom is an interned atom's predicate ID and the end of its tuple
// in GroundProgram.args; the tuple starts where the previous atom's ends.
type groundAtom struct {
	pred int32
	end  int32
}

// tuple returns atom id's ground arguments.
func (g *GroundProgram) tuple(id int) []int32 {
	lo := int32(0)
	if id > 0 {
		lo = g.atoms[id-1].end
	}
	return g.args[lo:g.atoms[id].end]
}

// atomHash hashes a (predicate ID, tuple) pair FNV-style; a tuple hashes
// alike as []int and as []int32.
func atomHash[T int | int32](pred int32, tuple []T) uint64 {
	h := (fnvOffset64 ^ uint64(pred)) * fnvPrime64
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
func (g *GroundProgram) atomID(pred int32, tuple []int) int {
	if 2*(len(g.atoms)+1) > len(g.slots) {
		g.grow()
	}
	mask := uint64(len(g.slots) - 1)
	i := atomHash(pred, tuple) & mask
	for id := g.slots[i]; id != 0; id = g.slots[i] {
		if g.atoms[id-1].pred == pred && sameTuple(g.tuple(int(id-1)), tuple) {
			return int(id - 1)
		}
		i = (i + 1) & mask
	}
	if g.budgetErr == nil {
		if err := g.budget.AddGroundAtoms(1); err != nil {
			g.budgetErr = stage.Wrap(stage.Eval, err)
		}
	}
	// Double the arrays, where append grows a large slice by a quarter
	// and so copies it about four times over.
	if len(g.args)+len(tuple) > cap(g.args) {
		g.args = append(make([]int32, 0, 2*cap(g.args)+len(tuple)+1024), g.args...)
	}
	for _, v := range tuple {
		g.args = append(g.args, int32(v))
	}
	if len(g.atoms) == cap(g.atoms) {
		g.atoms = append(make([]groundAtom, 0, 2*cap(g.atoms)+256), g.atoms...)
	}
	g.atoms = append(g.atoms, groundAtom{pred: pred, end: int32(len(g.args))})
	g.slots[i] = int32(len(g.atoms))
	return len(g.atoms) - 1
}

func sameTuple(a []int32, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if int(v) != b[i] {
			return false
		}
	}
	return true
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
		i := atomHash(a.pred, g.tuple(id)) & mask
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
// checks — Validate, semipositivity and QuasiGuards — once, plans every
// rule, and files each plan's prefix in a trie: the guard join that
// starts the plan and the fully bound extensional tests and builtins
// right after it, which bind nothing and intern nothing. Rules compiled
// from one formula mostly share their guard and many of those tests, so
// Ground evaluates each distinct prefix once per call, as a filtered
// subsequence of its parent's guard tuples, and starts each rule's
// remaining plan from its prefix's tuples. A rule none of whose guard
// tuples pass its prefix is skipped without being planned; the others
// are planned per call, over numbered variable slots, into scratch
// reused from rule to rule, so a Grounder holds per rule only its
// guard, its prefix node and the prefix's length.
//
// A Grounder is immutable and safe for concurrent use. The program must
// not be modified after NewGrounder.
type Grounder struct {
	prog   *Program
	rules  []groundRule
	kinds  []stepKind // every rule's body atoms in turn: stepTest, stepLit or stepBuiltin
	nodes  []prefixNode
	consts []string         // program constants, in the order Ground interns them
	preds  []string         // intensional predicates by ID
	predID map[string]int32 // inverse of preds
}

// groundRule is what a Grounder keeps of one rule: its quasi-guard's
// body index (-2: a rule without variables), its prefix node, and the
// number of plan steps the prefix covers.
type groundRule struct {
	guard, node, skip int32
}

// prefixNode is one step of a shared plan prefix. Node 0, the root, is
// the empty prefix of plans that do not start with a join; its children
// are guard joins, and every deeper node a test or builtin on the
// variables its join binds. A node's step keeps constants as indices
// into Grounder.consts.
type prefixNode struct {
	parent, join int32 // join: the guard join the node filters, itself at depth 1
	step         groundStep
}

// NewGrounder checks that p is a valid, semipositive program with a
// quasi-guard in every rule under fds, and prepares it for grounding.
func NewGrounder(p *Program, fds []FuncDep) (*Grounder, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	gr := &Grounder{prog: p, rules: make([]groundRule, len(p.Rules)), nodes: make([]prefixNode, 1), predID: map[string]int32{}}
	intens := map[string]bool{}
	for _, r := range p.Rules {
		if _, ok := gr.predID[r.Head.Pred]; !ok {
			gr.predID[r.Head.Pred] = int32(len(gr.preds))
			gr.preds = append(gr.preds, r.Head.Pred)
			intens[r.Head.Pred] = true
		}
	}
	kindOf := map[string]stepKind{}
	for _, r := range p.Rules {
		for _, a := range r.Body {
			k, ok := kindOf[a.Pred]
			if !ok {
				k = atomKind(a.Pred, intens)
				kindOf[a.Pred] = k
			}
			if a.Negated && intens[a.Pred] {
				return nil, fmt.Errorf("datalog: quasi-guarded evaluation requires semipositive programs; rule %s negates intensional %s", r, a.Pred)
			}
			gr.kinds = append(gr.kinds, k)
		}
	}
	// Planning interns the program's constants into a scratch database,
	// which numbers them in the order Ground is to intern them.
	consts := NewDB()
	s := &grounding{ruleJoin: ruleJoin{db: consts}, gr: gr}
	byPred := fdIndex(fds)
	children := map[string]int32{}
	var key []byte
	kinds := gr.kinds
	for ri, r := range p.Rules {
		s.layout(r)
		guard := s.quasiGuard(r, kinds[:len(r.Body)], intens, byPred)
		if guard == -1 {
			return nil, fmt.Errorf("datalog: rule %d has no quasi-guard: %s", ri, r)
		}
		if err := s.plan(r, guard, kinds[:len(r.Body)]); err != nil {
			return nil, err
		}
		kinds = kinds[len(r.Body):]
		// The prefix: a leading guard join, then the tests and builtins
		// right after it.
		node, n := int32(0), 0
		for n < len(s.steps) {
			st := &s.steps[n]
			if n == 0 && st.kind != stepJoin || n > 0 && st.kind != stepTest && st.kind != stepBuiltin {
				break
			}
			key = appendStepKey(key[:0], node, st)
			child, ok := children[string(key)]
			if !ok {
				child = int32(len(gr.nodes))
				join := child
				if n > 0 {
					join = gr.nodes[node].join
				}
				nd := prefixNode{parent: node, join: join, step: *st}
				nd.step.rel, nd.step.args = nil, append([]gArg(nil), st.args...)
				gr.nodes = append(gr.nodes, nd)
				children[string(key)] = child
			}
			node = child
			n++
		}
		gr.rules[ri] = groundRule{guard: int32(guard), node: node, skip: int32(n)}
	}
	gr.consts = consts.names
	return gr, nil
}

// arity returns the arity of the program's intensional predicate pred.
func (gr *Grounder) arity(pred string) int {
	for _, r := range gr.prog.Rules {
		if r.Head.Pred == pred {
			return len(r.Head.Args)
		}
	}
	return -1
}

// appendStepKey appends the trie key of step st under node parent: the
// parent, the step's kind, polarity and predicate, and its arguments.
func appendStepKey(b []byte, parent int32, st *groundStep) []byte {
	b = appendUint32(b, uint32(parent))
	b = append(b, byte(st.kind))
	if st.negated {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendUint32(b, uint32(len(st.pred)))
	b = append(b, st.pred...)
	for _, a := range st.args {
		b = append(b, byte(a.kind))
		b = appendUint32(b, uint32(a.v))
	}
	return b
}

func appendUint32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// Ground instantiates the program over edb (Theorem 4.4): each rule is
// joined from its quasi-guard against the EDB and its remaining
// variables follow by functional dependence; fully bound extensional
// literals are decided on the spot and intensional literals become
// propositional variables. The result has size O(|P|·|A|). Program
// constants are interned into edb.
//
// Tuples edb already stores for an intensional predicate hold, as in
// semi-naive evaluation: each is a unit clause, ahead of the rules'.
// Stored tuples of another arity than the program's are an error.
//
// Rules are ground in program order and each rule's instances in guard
// tuple order, so sharing prefixes leaves the clause list and the atom
// numbering as if every rule were joined on its own.
//
// The rule loop and every 1024 instantiation steps poll ctx; a context
// error comes back wrapped in a *stage.Error tagged stage.Eval, and so
// does a violation of the MaxGroundAtoms budget attached to ctx.
func (gr *Grounder) Ground(ctx context.Context, edb *DB) (*GroundProgram, error) {
	g := &GroundProgram{Horn: &horn.Program{}, preds: gr.preds, db: edb, budget: stage.BudgetFrom(ctx)}
	s := &grounding{ruleJoin: ruleJoin{ctx: ctx, g: g, db: edb}, gr: gr, consts: make([]int, len(gr.consts)), spans: make([]span, len(gr.nodes))}
	for i, c := range gr.consts {
		s.consts[i] = edb.Intern(c)
	}
	for id, pred := range gr.preds {
		r := edb.rels[pred]
		if r == nil {
			continue
		}
		if err := checkArity(pred, r, gr.arity(pred)); err != nil {
			return nil, err
		}
		for _, t := range r.tuples {
			g.Horn.AddClause(g.atomID(int32(id), t))
		}
		if g.budgetErr != nil {
			return nil, g.budgetErr
		}
	}
	kinds := gr.kinds
	for ri, r := range gr.prog.Rules {
		if err := ctx.Err(); err != nil {
			return nil, stage.Wrap(stage.Eval, err)
		}
		if err := faultinject.Check("datalog.ground-rule"); err != nil {
			return nil, stage.Wrap(stage.Eval, err)
		}
		rk := kinds[:len(r.Body)]
		kinds = kinds[len(r.Body):]
		gi := gr.rules[ri]
		var rows []int32
		if gi.node != 0 {
			var err error
			if rows, err = s.rows(gi.node); err != nil {
				return nil, err
			}
			if len(rows) == 0 {
				continue
			}
		}
		s.layout(r)
		if err := s.plan(r, int(gi.guard), rk); err != nil {
			return nil, err
		}
		s.headID = gr.predID[r.Head.Pred]
		if gi.node == 0 {
			if err := s.run(0); err != nil {
				return nil, err
			}
			continue
		}
		join := &s.steps[0]
		for _, i := range rows {
			s.bind(join.args, join.rel.tuples[i])
			if err := s.run(int(gi.skip)); err != nil {
				return nil, err
			}
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
	// keeping g's atom table alive for as long as the result is cached.
	n := 0
	for id, tv := range truth {
		if tv {
			n += len(g.tuple(id))
		}
	}
	flat := make([]int, n)
	out := edb.Clone()
	for id, tv := range truth {
		if tv {
			a := g.tuple(id)
			t := flat[:len(a):len(a)]
			flat = flat[len(a):]
			for i, v := range a {
				t[i] = int(v)
			}
			out.rel(g.preds[g.atoms[id].pred], len(t)).insertOwned(t)
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
	stepJoin    stepKind = iota // enumerate a positive relational atom
	stepTest                    // decide a bound relational atom
	stepBuiltin                 // decide a bound builtin
	stepLit                     // a bound intensional atom: a body literal (grounding only)
)

type groundStep struct {
	kind    stepKind
	negated bool
	id      int32 // stepLit: the predicate's ID
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

// ruleJoin is a rule's slot plan and the state of one run over it: the
// one join both evaluators enumerate candidates through. run extends the
// binding step by step and hands every completed binding to its caller.
// A grounding (g set) adds the instance's Horn clause; semi-naive
// evaluation derives the head tuple (see derive).
type ruleJoin struct {
	ctx  context.Context
	tick uint
	db   *DB // interns the plan's constants and names builtin arguments

	steps   []groundStep
	head    []gArg
	binding []int        // slot → constant ID; a step reads only slots bound before it
	cands   []candidates // step → its current probe's candidates (joins)
	tuple   []int        // probe pattern / ground arguments
	names   []string     // builtin arguments

	// A grounding's hand-off: the ground program, the head's predicate
	// ID and the current instance's intensional body literals.
	g      *GroundProgram
	headID int32
	lits   []int

	// Semi-naive evaluation's hand-off (g nil): the head relation and the
	// round's delta, which shares every new tuple. budget is the
	// stream-tuples budget the join steps are charged to; charged is the
	// tick count already charged.
	out, outDelta *relation
	budget        *stage.Budget
	charged       uint
}

// grounding is the state of one Grounder.Ground call — the ground
// program being built, the prefix nodes' guard tuples, and the current
// rule's plan and binding, whose buffers are reused from rule to rule —
// or the planning scratch of NewGrounder and of semi-naive evaluation.
type grounding struct {
	ruleJoin
	gr *Grounder

	// The layout's view of the rule: variables numbered by first
	// occurrence, each argument's variable number (-1 for a constant),
	// where each atom's arguments end (the head last), and each
	// variable's slot, or -1 while no step binds it.
	varNames   []string
	argVar     []int
	atomEnd    []int
	varSlot    []int
	nslots     int
	processed  []bool
	known      []bool     // quasiGuard: variables the candidate determines
	fdAtoms    []atomFD   // quasiGuard: the rule's usable dependencies
	kinds      []stepKind // planTask: the rule's body atoms' kinds
	planBuilds int        // planTask: the task plans built so far

	args      []gArg // backing store of the plan's argument lists, in step order, the head's last
	guardStep int    // the step plan gave the guard, if the rule has one

	consts   []int  // Grounder.consts index → constant ID in edb
	spans    []span // per prefix node: its guard tuples in rowBuf
	rowBuf   []int32
	node     groundStep // a prefix node's step with its constants interned
	nodeArgs []gArg
}

// span locates a prefix node's guard tuples in grounding.rowBuf once
// they are computed.
type span struct {
	lo, hi int32
	done   bool
}

// layout numbers rule r's variables by first occurrence and records
// each argument's variable number.
func (s *grounding) layout(r Rule) {
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
}

// plan lays rule r out, over the variable numbering s.layout(r)
// computed, as steps: a fully bound atom first, in body order;
// otherwise a join on a positive relational atom (kind stepTest) — the
// guard while it is pending, else the first one sharing a bound
// variable, else the first one. The grounder's guard is the rule's
// quasi-guard: starting there bounds each rule's instances by the
// guard's tuples, where a join from an earlier body atom could enumerate
// a cross product first. Semi-naive evaluation passes its delta
// occurrence as the guard, so the delta drives the join. The order fixes
// the clause order and atom numbering of the ground program, which tests
// pin.
func (s *grounding) plan(r Rule, guard int, kinds []stepKind) error {
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
		if next == guard {
			s.guardStep = len(s.steps)
		}
		s.processed[next] = true
		a := r.Body[next]
		st := groundStep{kind: kinds[next], negated: a.Negated, pred: a.Pred, args: s.planArgs(a.Args, next)}
		switch {
		case join:
			st.kind = stepJoin
		case st.kind == stepLit:
			st.id = s.gr.predID[a.Pred]
		}
		if st.kind == stepJoin || st.kind == stepTest {
			st.rel = ofArity(s.db.rels[a.Pred], len(a.Args))
		}
		s.steps = append(s.steps, st)
	}
	s.head = s.planArgs(r.Head.Args, len(r.Body))
	if len(s.cands) < len(s.steps) {
		s.cands = make([]candidates, len(s.steps))
	}
	s.reserve(s.nslots)
	return nil
}

// reserve sizes the binding for n slots.
func (s *grounding) reserve(n int) {
	if cap(s.binding) < n {
		s.binding = make([]int, n)
	}
	s.binding = s.binding[:n]
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
			s.args = append(s.args, gArg{kind: argConst, v: s.db.Intern(terms[j].Const)})
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

// poll counts one join step and, every 1024, checks the context and
// charges the steps (see charge).
func (s *ruleJoin) poll() error {
	if s.tick++; s.tick&1023 == 0 {
		if err := s.ctx.Err(); err != nil {
			return stage.Wrap(stage.Eval, err)
		}
		return s.charge()
	}
	return nil
}

// rows returns the row numbers, into the guard relation, of the guard
// tuples that pass prefix node n, in the order its join lists them. The
// first call for a node computes them, from its parent's rows, or from
// the relation for a join.
func (s *grounding) rows(n int32) ([]int32, error) {
	if sp := s.spans[n]; sp.done {
		return s.rowBuf[sp.lo:sp.hi], nil
	}
	nd := &s.gr.nodes[n]
	var parent []int32
	if nd.parent != 0 {
		var err error
		if parent, err = s.rows(nd.parent); err != nil {
			return nil, err
		}
	}
	join := &s.gr.nodes[nd.join].step
	s.reserve(max(len(s.binding), len(join.args)))
	st := s.resolve(&nd.step)
	lo := len(s.rowBuf)
	switch {
	case nd.parent == 0:
		if err := s.scan(st); err != nil {
			return nil, err
		}
	case len(parent) > 0:
		rel := ofArity(s.db.rels[join.pred], len(join.args))
		for _, i := range parent {
			if err := s.poll(); err != nil {
				return nil, err
			}
			s.bind(join.args, rel.tuples[i])
			holds, err := s.holds(st)
			if err != nil {
				return nil, err
			}
			if holds {
				s.rowBuf = append(s.rowBuf, i)
			}
		}
	}
	s.spans[n] = span{lo: int32(lo), hi: int32(len(s.rowBuf)), done: true}
	return s.rowBuf[lo:], nil
}

// resolve returns a prefix node's step as a plan of this call would have
// it: constants interned in edb, the relation bound.
func (s *grounding) resolve(st *groundStep) *groundStep {
	s.node = *st
	s.nodeArgs = s.nodeArgs[:0]
	for _, a := range st.args {
		if a.kind == argConst {
			a.v = s.consts[a.v]
		}
		s.nodeArgs = append(s.nodeArgs, a)
	}
	s.node.args = s.nodeArgs
	if st.kind != stepBuiltin {
		s.node.rel = ofArity(s.db.rels[st.pred], len(st.args))
	}
	return &s.node
}

// scan appends the row numbers of the tuples the guard join st matches
// to rowBuf: the candidates of a probe on its constants, in insertion
// order, that agree with it on its repeated variables too.
func (s *grounding) scan(st *groundStep) error {
	if st.rel == nil {
		return nil
	}
	pat := s.tuple[:0]
	for _, a := range st.args {
		if a.kind == argConst {
			pat = append(pat, a.v)
		} else {
			pat = append(pat, -1)
		}
	}
	s.tuple = pat
	tuples := st.rel.tuples
	check := func(i int32) error {
		if err := s.poll(); err != nil {
			return err
		}
		if s.unify(st.args, tuples[i]) {
			s.rowBuf = append(s.rowBuf, i)
		}
		return nil
	}
	if bucket, all := st.rel.bucket(pat); !all {
		for _, i := range bucket {
			if err := check(i); err != nil {
				return err
			}
		}
		return nil
	}
	for i := range tuples {
		if err := check(int32(i)); err != nil {
			return err
		}
	}
	return nil
}

// run extends the current instance by plan step k and recurses; past
// the last step it hands the completed binding to the caller: a
// grounding emits the instance's clause, semi-naive evaluation derives
// the head tuple. Every call is one join step (see poll).
func (s *ruleJoin) run(k int) error {
	if err := s.poll(); err != nil {
		return err
	}
	if k == len(s.steps) {
		if s.g == nil {
			return s.derive()
		}
		head := s.g.atomID(s.headID, s.ground(s.head))
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
		lit := s.g.atomID(st.id, s.ground(st.args))
		if s.g.budgetErr != nil {
			return s.g.budgetErr
		}
		s.lits = append(s.lits, lit)
		err := s.run(k + 1)
		s.lits = s.lits[:len(s.lits)-1]
		return err
	default:
		if holds, err := s.holds(st); err != nil || !holds {
			return err
		}
		return s.run(k + 1)
	}
}

// holds decides a bound test or builtin step under the current binding.
func (s *ruleJoin) holds(st *groundStep) (bool, error) {
	if st.kind == stepBuiltin {
		s.names = s.names[:0]
		for _, id := range s.ground(st.args) {
			s.names = append(s.names, s.db.ConstName(id))
		}
		holds, err := callBuiltin(st.pred, s.names)
		return holds != st.negated, err
	}
	holds := st.rel != nil && st.rel.has(s.ground(st.args))
	return holds != st.negated, nil
}

// join enumerates the tuples of step k's atom that agree with the
// current binding. The relation is probed zero-copy on the bound
// positions; as a probe may answer from an index on a subset of them,
// each candidate is re-checked on every constant, bound and repeated
// position while its fresh positions are bound.
func (s *ruleJoin) join(k int, st *groundStep) error {
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
func (s *ruleJoin) unify(args []gArg, t []int) bool {
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

// bind binds the fresh positions of a guard join's args to a tuple
// already known to match it.
func (s *ruleJoin) bind(args []gArg, t []int) {
	for j, a := range args {
		if a.kind == argFresh {
			s.binding[a.v] = t[j]
		}
	}
}

// ground writes the atom's ground arguments under the current binding
// into the shared tuple buffer.
func (s *ruleJoin) ground(args []gArg) []int {
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
		if !tv || g.preds[g.atoms[id].pred] != pred {
			continue
		}
		t := g.tuple(id)
		names := make([]string, len(t))
		for i, e := range t {
			names[i] = g.db.ConstName(int(e))
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
