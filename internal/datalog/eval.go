package datalog

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

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
// Within each stratum the rule×delta-occurrence evaluations of a round
// run on a pool of stage.Workers(ctx) goroutines; each task buffers its
// derivations, and buffers are merged through the dedup sets in task
// order, so the result (and even the tuple insertion order) is
// deterministic and independent of the worker count.
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
	cfg := configFrom(ctx)
	db := edb.Clone()
	// Intern every constant of the program up front: planning then only
	// reads the interning table, which keeps parallel tasks free of
	// writes to shared DB state.
	internProgramConsts(p, db)
	byHead := headIndex(p)
	// The planner's ruleJoin holds what every task copies: the context,
	// the database and the configuration.
	planner := &grounding{ruleJoin: ruleJoin{ctx: ctx, db: db, cfg: &cfg}}
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
	return db, nil
}

// evalConfig is the per-run evaluation setup read once from the
// context: the stream-tuples budget, the stats collector and the worker
// count of the parallel rounds.
type evalConfig struct {
	budget    *stage.Budget
	collector *StatsCollector
	workers   int
}

func configFrom(ctx context.Context) evalConfig {
	return evalConfig{budget: stage.BudgetFrom(ctx), collector: statsCollectorFrom(ctx), workers: stage.Workers(ctx)}
}

func internProgramConsts(p *Program, db *DB) {
	for _, r := range p.Rules {
		for _, t := range r.Head.Args {
			if !t.IsVar() {
				db.Intern(t.Const)
			}
		}
		for _, a := range r.Body {
			for _, t := range a.Args {
				if !t.IsVar() {
					db.Intern(t.Const)
				}
			}
		}
	}
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

// parallelThreshold is the minimum number of pending input tuples before
// a round fans its tasks out to goroutines; below it the per-goroutine
// overhead outweighs the work.
const parallelThreshold = 128

// planBuilds counts semi-naive task plans built process-wide; the
// regression test pins that evaluation plans each (rule, delta
// occurrence) instance once, never once per round.
var planBuilds atomic.Int64

// PlanBuilds reports the total number of semi-naive rule plans built
// since process start; tests diff it around an evaluation.
func PlanBuilds() int64 { return planBuilds.Load() }

// ruleTask is one (rule, delta occurrence) instance of semi-naive
// evaluation: the rule's slot plan, with the delta occurrence in the
// quasi-guard's place so it is joined first, and the state of running
// it. A task is planned once and runs in every round with a delta for
// it, on one goroutine at a time.
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
	planBuilds.Add(1)
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
			ctx: s.ctx, db: s.db, steps: steps, head: args, cfg: s.cfg,
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
// head tuple goes into the head relation and the round's delta or, in a
// parallel round, into the task's buffer if the head relation lacks it.
// The datalog.join fault point is checked once per derived row.
func (s *ruleJoin) derive() error {
	if err := faultinject.Check("datalog.join"); err != nil {
		return stage.Wrap(stage.Eval, err)
	}
	row := s.ground(s.head)
	if s.outDelta != nil {
		if stored, added := s.out.insertRow(row); added {
			s.outDelta.appendShared(stored)
		}
	} else if !s.out.has(row) {
		s.buf = append(s.buf, s.arenaCopy(row))
	}
	return nil
}

// charge reports the join steps since the last charge to the stats
// collector and the stream-tuples budget. A grounding charges nothing.
func (s *ruleJoin) charge() error {
	if s.cfg == nil {
		return nil
	}
	n := int64(s.tick - s.charged)
	s.charged = s.tick
	addTuplesStreamed(s.cfg.collector, n)
	if err := s.cfg.budget.AddStreamTuples(n); err != nil {
		return stage.Wrap(stage.Eval, err)
	}
	return nil
}

// arenaCopy copies a row into an arena-carved tuple the caller may
// retain. Rows a parallel round buffers are ultimately adopted by the
// database, so allocating them one slice at a time would dominate GC
// work on derivation-heavy programs.
func (s *ruleJoin) arenaCopy(row []int) []int {
	n := len(row)
	if len(s.arena) < n {
		s.arena = make([]int, 4096+n)
	}
	tuple := s.arena[:n:n]
	s.arena = s.arena[n:]
	copy(tuple, row)
	return tuple
}

// evalStratum runs semi-naive iteration for one stratum's rules, planning
// their tasks with planner.
func evalStratum(ctx context.Context, rules []Rule, inStratum map[string]bool, planner *grounding) error {
	db, cfg := planner.db, planner.cfg
	// Tasks per rule, indexed by occ+1 (slot 0 is the full first pass),
	// planned lazily and kept across rounds, so a plan and its buffers
	// warm up once and parallel tasks share no mutable state. Planning
	// is serial; the parallel phase only runs tasks.
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
	delta, err := runStratumRound(ctx, tasks, nil, db, db.NumFacts(), cfg)
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
		delta, err = runStratumRound(ctx, tasks, delta, db, total, cfg)
		if err != nil {
			return err
		}
	}
}

// runStratumRound runs one round's tasks, each reading its delta
// occurrence, if it has one, from delta, and returns the delta of
// genuinely new facts. Small rounds run serially with derivations
// inserted as they are found; large rounds fan the tasks out to a
// worker pool, with each task buffering its derivations and the buffers
// merged through the dedup tables in task order afterwards — so the
// derived fact set is identical, and for a fixed worker setting even the
// tuple insertion order is deterministic.
//
// Each task evaluates one rule, so everything it derives belongs to the
// rule's head predicate. New tuples are shared between the database and
// the (dedup-free) delta relation rather than re-hashed into it.
func runStratumRound(ctx context.Context, tasks []*ruleTask, delta map[string]*relation, db *DB, workSize int, cfg *evalConfig) (map[string]*relation, error) {
	if err := ctx.Err(); err != nil {
		return nil, stage.Wrap(stage.Eval, err)
	}
	newDelta := map[string]*relation{}
	sink := func(t *ruleTask) (*relation, *relation) {
		nd, ok := newDelta[t.pred]
		if !ok {
			nd = newDeltaRelation(len(t.head))
			newDelta[t.pred] = nd
		}
		return db.rel(t.pred, len(t.head)), nd
	}
	workers := min(cfg.workers, len(tasks))
	// evalTask wraps one task with panic containment and the worker-loop
	// fault-injection point: a builtin or join panic becomes a
	// stage-tagged *stage.PanicError instead of killing the worker
	// goroutine (and with it the process).
	evalTask := func(t *ruleTask) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = stage.Wrap(stage.Eval, stage.NewPanicError(r))
			}
		}()
		if err := faultinject.Check("datalog.stratum-task"); err != nil {
			return stage.Wrap(stage.Eval, err)
		}
		return t.eval(db, delta)
	}
	if workers <= 1 || workSize < parallelThreshold {
		for _, t := range tasks {
			// Derivations go straight into the head relation, which copies
			// only genuinely new tuples, so a serial round buffers nothing.
			t.out, t.outDelta = sink(t)
			if err := evalTask(t); err != nil {
				return nil, err
			}
		}
		return newDelta, nil
	}
	// Parallel round: each task buffers its derivations privately and the
	// buffers merge in task order. Tasks pre-filter against the (frozen,
	// read-only) head relation so already-known facts are never buffered,
	// and the buffers themselves are reused across rounds.
	for _, t := range tasks {
		t.out, t.outDelta = db.rel(t.pred, len(t.head)), nil
	}
	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(tasks); i += workers {
				errs[i] = evalTask(tasks[i])
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	pending := int64(0)
	for _, t := range tasks {
		pending += int64(len(t.buf))
	}
	notePeakBuffered(cfg.collector, pending)
	for _, t := range tasks {
		rel, nd := sink(t)
		for _, tuple := range t.buf {
			if rel.insertOwned(tuple) {
				nd.appendShared(tuple)
			}
		}
		t.buf = t.buf[:0]
	}
	return newDelta, nil
}
