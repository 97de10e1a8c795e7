package datalog

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/faultinject"
	"repro/internal/stage"
)

// Eval computes the least fixpoint of the program over the extensional
// database by stratified semi-naive bottom-up evaluation and returns a
// database containing the extensional and all derived intensional facts.
// The input database is not modified.
//
// The program must be stratifiable: no predicate may depend negatively on
// itself through a cycle. Negation over purely extensional predicates —
// all the paper's constructions need (the programs of Theorem 4.5 negate
// only τ-atoms) — is always stratified.
//
// Within each stratum a round runs its rule×delta-occurrence tasks one
// after another on the calling goroutine, each derivation going straight
// into its head relation, so the result (and even the tuple insertion
// order) is deterministic.
func Eval(p *Program, edb *DB) (*DB, error) {
	return EvalCtx(context.Background(), p, edb)
}

// EvalCtx is Eval with cancellation support: the stratum loop, each
// semi-naive round and the rule joins themselves (every 1024 join steps)
// check ctx, so evaluation of a large program stops promptly after
// cancellation or a deadline. A context error is returned wrapped in a
// *stage.Error tagged stage.Eval. The join steps are charged to the
// context's MaxStreamTuples budget at the same polls.
func EvalCtx(ctx context.Context, p *Program, edb *DB) (*DB, error) {
	planner, err := evalSemiNaive(ctx, p, edb)
	if err != nil {
		return nil, err
	}
	return planner.db, nil
}

// evalSemiNaive is EvalCtx returning the evaluation's planner, whose db
// is the fixpoint.
func evalSemiNaive(ctx context.Context, p *Program, edb *DB) (*grounding, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	intens := p.IntensionalPreds()
	for pred := range intens {
		if IsBuiltin(pred) {
			return nil, fmt.Errorf("datalog: builtin %s cannot be intensional", pred)
		}
	}
	strata, err := stratify(p)
	if err != nil {
		return nil, err
	}
	db := edb.Clone()
	byHead := headIndex(p)
	// The planner's ruleJoin holds what every task copies: the context,
	// the database and the stream-tuples budget.
	planner := &grounding{ruleJoin: ruleJoin{ctx: ctx, db: db, budget: stage.BudgetFrom(ctx)}}
	for _, stratum := range strata {
		if err := ctx.Err(); err != nil {
			return nil, stage.Wrap(stage.Eval, err)
		}
		inStratum := map[string]bool{}
		for _, pred := range stratum {
			inStratum[pred] = true
			if err := checkArity(pred, db.rels[pred], len(p.Rules[byHead[pred][0]].Head.Args)); err != nil {
				return nil, err
			}
		}
		if err := evalStratum(ctx, stratumRules(p, byHead, stratum), inStratum, planner); err != nil {
			return nil, err
		}
	}
	return planner, nil
}

// headIndex maps every head predicate to the ordered indices of its
// rules. Compiled MSO programs have thousands of predicates and (mostly)
// one stratum per predicate, so the stratum loops must gather their
// rules through this index — rescanning p.Rules per stratum is
// quadratic in the program and used to dominate evaluation wholesale.
func headIndex(p *Program) map[string][]int {
	byHead := make(map[string][]int)
	for i, r := range p.Rules {
		byHead[r.Head.Pred] = append(byHead[r.Head.Pred], i)
	}
	return byHead
}

// stratumRules returns the stratum's rules in program order — the same
// slice the old full scan produced, so task order (and with it the
// deterministic tuple insertion order) is unchanged.
func stratumRules(p *Program, byHead map[string][]int, stratum []string) []Rule {
	var idx []int
	for _, pred := range stratum {
		idx = append(idx, byHead[pred]...)
	}
	sort.Ints(idx)
	rules := make([]Rule, len(idx))
	for i, ri := range idx {
		rules[i] = p.Rules[ri]
	}
	return rules
}

// stratify orders the intensional predicates into strata such that every
// negative dependency points strictly downward. Returns groups of
// predicates in evaluation order.
func stratify(p *Program) ([][]string, error) {
	intens := p.IntensionalPreds()
	preds := make([]string, 0, len(intens))
	for pr := range intens {
		preds = append(preds, pr)
	}
	sort.Strings(preds)
	index := map[string]int{}
	for i, pr := range preds {
		index[pr] = i
	}
	n := len(preds)
	type edge struct {
		to  int
		neg bool
	}
	adj := make([][]edge, n)
	for _, r := range p.Rules {
		h := index[r.Head.Pred]
		for _, a := range r.Body {
			if bi, ok := index[a.Pred]; ok {
				adj[h] = append(adj[h], edge{to: bi, neg: a.Negated})
			}
		}
	}
	// Tarjan SCC (iterative).
	const unvisited = -1
	low := make([]int, n)
	num := make([]int, n)
	comp := make([]int, n)
	onStack := make([]bool, n)
	for i := range num {
		num[i] = unvisited
		comp[i] = -1
	}
	var stack, callStack []int
	counter, nComp := 0, 0
	for s := 0; s < n; s++ {
		if num[s] != unvisited {
			continue
		}
		callStack = append(callStack, s)
		iter := map[int]int{}
		for len(callStack) > 0 {
			v := callStack[len(callStack)-1]
			if num[v] == unvisited {
				num[v] = counter
				low[v] = counter
				counter++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for iter[v] < len(adj[v]) {
				e := adj[v][iter[v]]
				iter[v]++
				if num[e.to] == unvisited {
					callStack = append(callStack, e.to)
					advanced = true
					break
				}
				if onStack[e.to] && num[e.to] < low[v] {
					low[v] = num[e.to]
				}
			}
			if advanced {
				continue
			}
			if low[v] == num[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = nComp
					if w == v {
						break
					}
				}
				nComp++
			}
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				parent := callStack[len(callStack)-1]
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
		}
	}
	// Negative edges within a component are unstratifiable.
	for v := 0; v < n; v++ {
		for _, e := range adj[v] {
			if e.neg && comp[v] == comp[e.to] {
				return nil, fmt.Errorf("datalog: program not stratified: %s depends negatively on %s within a cycle", preds[v], preds[e.to])
			}
		}
	}
	// Tarjan numbers components in reverse topological order of the
	// dependency graph (head → body), so component 0 has no dependencies:
	// evaluate components in increasing order.
	groups := make([][]string, nComp)
	for v, c := range comp {
		groups[c] = append(groups[c], preds[v])
	}
	return groups, nil
}

// ruleTask is one (rule, delta occurrence) instance of semi-naive
// evaluation: the rule's slot plan, with the delta occurrence in the
// quasi-guard's place so it is joined first, and the state of running
// it. A task is planned once and runs in every round with a delta for
// it.
type ruleTask struct {
	ruleJoin
	pred      string // the head predicate
	deltaStep int    // the step reading the delta; -1 in the first pass
}

// planTask plans rule r into a task whose body atom occ reads the delta
// (occ = -1: the full first pass). It plans as the grounder does, except
// that every relational atom, intensional ones included, is joined or
// tested against its current relation. The task keeps only its plan and
// binding; the planning scratch is s's, shared by every task.
func (s *grounding) planTask(r Rule, occ int) (*ruleTask, error) {
	s.planBuilds++
	s.kinds = s.kinds[:0]
	for _, a := range r.Body {
		s.kinds = append(s.kinds, atomKind(a.Pred, nil))
	}
	s.layout(r)
	if err := s.plan(r, occ, s.kinds); err != nil {
		return nil, err
	}
	// The steps' argument lists lie back to back in s.args, the head's
	// last: copy them once and re-slice.
	args := append([]gArg(nil), s.args...)
	steps := append([]groundStep(nil), s.steps...)
	for k := range steps {
		n := len(steps[k].args)
		steps[k].args, args = args[:n:n], args[n:]
	}
	t := &ruleTask{
		ruleJoin: ruleJoin{
			ctx: s.ctx, db: s.db, steps: steps, head: args, budget: s.budget,
			binding: make([]int, s.nslots), cands: make([]candidates, len(steps)),
		},
		pred:      r.Head.Pred,
		deltaStep: -1,
	}
	if occ >= 0 {
		t.deltaStep = s.guardStep
		// A delta occurrence without variables is planned as a test, but
		// a delta relation keeps no dedup table to test against: probe it.
		if st := &steps[t.deltaStep]; st.kind == stepTest {
			st.kind = stepJoin
		}
	}
	return t, nil
}

// eval runs the task once: every relational step re-pointed at its
// current relation, the delta step at its predicate's relation in delta.
// The join steps left over since the last poll are charged at the end.
func (t *ruleTask) eval(db *DB, delta map[string]*relation) error {
	for k := range t.steps {
		st := &t.steps[k]
		if st.kind != stepJoin && st.kind != stepTest {
			continue
		}
		r := db.rels[st.pred]
		if k == t.deltaStep {
			r = delta[st.pred]
		}
		st.rel = ofArity(r, len(st.args))
	}
	err := t.run(0)
	if cerr := t.charge(); err == nil {
		err = cerr
	}
	return err
}

// derive is semi-naive evaluation's hand-off of a completed binding: the
// head tuple goes into the head relation and, if it is new there, the
// round's delta. The datalog.join fault point is checked once per
// derived row.
func (s *ruleJoin) derive() error {
	if err := faultinject.Check("datalog.join"); err != nil {
		return stage.Wrap(stage.Eval, err)
	}
	if stored, added := s.out.insertRow(s.ground(s.head)); added {
		s.outDelta.appendShared(stored)
	}
	return nil
}

// charge charges the join steps since the last charge to the
// stream-tuples budget. A grounding has no budget here and charges
// nothing.
func (s *ruleJoin) charge() error {
	n := int64(s.tick - s.charged)
	s.charged = s.tick
	if err := s.budget.AddStreamTuples(n); err != nil {
		return stage.Wrap(stage.Eval, err)
	}
	return nil
}

// evalStratum runs semi-naive iteration for one stratum's rules, planning
// their tasks with planner.
func evalStratum(ctx context.Context, rules []Rule, inStratum map[string]bool, planner *grounding) error {
	db := planner.db
	// Tasks per rule, indexed by occ+1 (slot 0 is the full first pass),
	// planned lazily and kept across rounds, so a plan and its buffers
	// warm up once.
	planned := make([][]*ruleTask, len(rules))
	task := func(ri, occ int) (*ruleTask, error) {
		if planned[ri] == nil {
			planned[ri] = make([]*ruleTask, len(rules[ri].Body)+1)
		}
		if t := planned[ri][occ+1]; t != nil {
			return t, nil
		}
		t, err := planner.planTask(rules[ri], occ)
		if err != nil {
			return nil, err
		}
		planned[ri][occ+1] = t
		return t, nil
	}

	// First pass: evaluate every rule in full.
	tasks := make([]*ruleTask, len(rules))
	for i := range rules {
		t, err := task(i, -1)
		if err != nil {
			return err
		}
		tasks[i] = t
	}
	delta, err := runStratumRound(ctx, tasks, nil, db)
	if err != nil {
		return err
	}

	// Iterate: each recursive rule is re-evaluated once per occurrence of
	// a stratum predicate in its body, with that occurrence restricted to
	// the delta of the previous round.
	for {
		total := 0
		for _, nr := range delta {
			total += len(nr.tuples)
		}
		if total == 0 {
			return nil
		}
		tasks = tasks[:0]
		for ri, r := range rules {
			for occ, a := range r.Body {
				if a.Negated || !inStratum[a.Pred] {
					continue
				}
				if d := delta[a.Pred]; d == nil || len(d.tuples) == 0 {
					continue
				}
				t, err := task(ri, occ)
				if err != nil {
					return err
				}
				tasks = append(tasks, t)
			}
		}
		if len(tasks) == 0 {
			return nil
		}
		delta, err = runStratumRound(ctx, tasks, delta, db)
		if err != nil {
			return err
		}
	}
}

// runStratumRound runs one round's tasks in order, each reading its
// delta occurrence, if it has one, from delta, and returns the delta of
// genuinely new facts. Each task evaluates one rule, so everything it
// derives belongs to the rule's head predicate; derivations go straight
// into the head relation, which copies only genuinely new tuples, and
// each new tuple is shared between the database and the (dedup-free)
// delta relation rather than re-hashed into it. The
// datalog.stratum-task fault point is checked before every task, and a
// builtin or join panic comes back as a stage-tagged *stage.PanicError.
func runStratumRound(ctx context.Context, tasks []*ruleTask, delta map[string]*relation, db *DB) (newDelta map[string]*relation, err error) {
	if err := ctx.Err(); err != nil {
		return nil, stage.Wrap(stage.Eval, err)
	}
	defer func() {
		if r := recover(); r != nil {
			newDelta, err = nil, stage.Wrap(stage.Eval, stage.NewPanicError(r))
		}
	}()
	newDelta = map[string]*relation{}
	for _, t := range tasks {
		nd, ok := newDelta[t.pred]
		if !ok {
			nd = newDeltaRelation(len(t.head))
			newDelta[t.pred] = nd
		}
		t.out, t.outDelta = db.rel(t.pred, len(t.head)), nd
		if err := faultinject.Check("datalog.stratum-task"); err != nil {
			return nil, stage.Wrap(stage.Eval, err)
		}
		if err := t.eval(db, delta); err != nil {
			return nil, err
		}
	}
	return newDelta, nil
}
