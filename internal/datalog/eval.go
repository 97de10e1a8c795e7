package datalog

import (
	"context"
	"fmt"
	"sort"
	"sync"

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
// semi-naive round and the rule pipelines themselves (every 1024
// operator steps) check ctx, so evaluation of a large program stops
// promptly after cancellation or a deadline. A context error is returned
// wrapped in a *stage.Error tagged stage.Eval.
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
	// Intern every constant of the program up front: rule compilation then
	// only reads the interning table, which keeps parallel tasks free of
	// writes to shared DB state.
	internProgramConsts(p, db)
	byHead := headIndex(p)
	for _, stratum := range strata {
		if err := ctx.Err(); err != nil {
			return nil, stage.Wrap(stage.Eval, err)
		}
		inStratum := map[string]bool{}
		for _, pred := range stratum {
			inStratum[pred] = true
		}
		if err := evalStratum(ctx, stratumRules(p, byHead, stratum), inStratum, db, cfg); err != nil {
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

// evalStratum runs semi-naive iteration for one stratum's rules.
func evalStratum(ctx context.Context, rules []Rule, inStratum map[string]bool, db *DB, cfg evalConfig) error {
	// Planned instances per rule, indexed by occ+1 (slot 0 is the full
	// first-pass evaluation); each (rule, occ) pair keeps its own
	// instance across rounds, so the plan and its scratch buffers warm up
	// once and tasks never share mutable state. Filled lazily;
	// compilation is serial, so the parallel phase only ever reads the
	// cache.
	compiled := make([]*cRule, len(rules))
	planned := make([][]*cRule, len(rules))
	instance := func(ri, occ int) (*cRule, error) {
		if planned[ri] == nil {
			compiled[ri] = compileRule(rules[ri], db)
			planned[ri] = make([]*cRule, len(rules[ri].Body)+1)
		}
		if c := planned[ri][occ+1]; c != nil {
			return c, nil
		}
		c, err := compiled[ri].instance(occ, cfg)
		if err != nil {
			return nil, err
		}
		c.ctx = ctx
		planned[ri][occ+1] = c
		return c, nil
	}

	// First pass: evaluate every rule in full.
	tasks := make([]*cRule, len(rules))
	for i := range rules {
		c, err := instance(i, -1)
		if err != nil {
			return err
		}
		tasks[i] = c
	}
	delta, err := runStratumRound(ctx, tasks, nil, db, db.NumFacts(), cfg.workers)
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
				c, err := instance(ri, occ)
				if err != nil {
					return err
				}
				tasks = append(tasks, c)
			}
		}
		if len(tasks) == 0 {
			return nil
		}
		delta, err = runStratumRound(ctx, tasks, delta, db, total, cfg.workers)
		if err != nil {
			return err
		}
	}
}

// runStratumRound evaluates one round's tasks — each a compiled rule
// whose delta occurrence, if it has one, reads that predicate's relation
// in delta — and returns the delta of genuinely new facts. Small rounds
// run serially with derivations inserted as they are found; large rounds
// fan the tasks out to a worker pool, with each task buffering its
// derivations and the buffers merged through the dedup tables in task
// order afterwards — so the derived fact set is identical, and for a
// fixed worker setting even the tuple insertion order is deterministic.
//
// Each task evaluates one rule, so everything it emits belongs to the
// rule's head predicate. New tuples are shared between the database and
// the (dedup-free) delta relation rather than re-hashed into it.
func runStratumRound(ctx context.Context, tasks []*cRule, delta map[string]*relation, db *DB, workSize, workers int) (map[string]*relation, error) {
	if err := ctx.Err(); err != nil {
		return nil, stage.Wrap(stage.Eval, err)
	}
	newDelta := map[string]*relation{}
	sink := func(c *cRule) (*relation, *relation) {
		nd, ok := newDelta[c.headPred]
		if !ok {
			nd = newDeltaRelation(c.headArity)
			newDelta[c.headPred] = nd
		}
		return db.rel(c.headPred, c.headArity), nd
	}
	workers = min(workers, len(tasks))
	// evalTask wraps one rule evaluation with panic containment and the
	// worker-loop fault-injection point: a handler or join panic becomes
	// a stage-tagged *stage.PanicError instead of killing the worker
	// goroutine (and with it the process).
	evalTask := func(c *cRule, emit func([]int)) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = stage.Wrap(stage.Eval, stage.NewPanicError(r))
			}
		}()
		if err := faultinject.Check("datalog.stratum-task"); err != nil {
			return stage.Wrap(stage.Eval, err)
		}
		var d *relation
		if c.occ >= 0 {
			d = delta[c.body[c.occ].pred]
		}
		return c.eval(d, emit)
	}
	if workers <= 1 || workSize < parallelThreshold {
		for _, c := range tasks {
			rel, nd := sink(c)
			// Streamed rows are reused operator buffers: the relation
			// copies only genuinely new tuples, so the serial path holds
			// O(1) rows in flight per rule.
			err := evalTask(c, func(row []int) {
				if stored, added := rel.insertRow(row); added {
					nd.appendShared(stored)
				}
			})
			if err != nil {
				return nil, err
			}
		}
		return newDelta, nil
	}
	// Parallel round: each task buffers its derivations privately and the
	// buffers merge in task order. Tasks pre-filter against the (frozen,
	// read-only) head relation so already-known facts are never buffered,
	// and the buffers themselves are reused across rounds.
	headRels := make([]*relation, len(tasks))
	bufs := make([][][]int, len(tasks))
	for i, c := range tasks {
		headRels[i] = db.rel(c.headPred, c.headArity)
		bufs[i] = c.outBuf[:0]
	}
	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(tasks); i += workers {
				i := i
				c, rel := tasks[i], headRels[i]
				errs[i] = evalTask(c, func(row []int) {
					if !rel.has(row) {
						bufs[i] = append(bufs[i], c.arenaCopy(row))
					}
				})
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
	for _, buf := range bufs {
		pending += int64(len(buf))
	}
	notePeakBuffered(tasks[0].cfg.collector, pending)
	for i, buf := range bufs {
		rel, nd := sink(tasks[i])
		for _, tuple := range buf {
			if rel.insertOwned(tuple) {
				nd.appendShared(tuple)
			}
		}
		tasks[i].outBuf = buf[:0]
	}
	return newDelta, nil
}

// cArg is a compiled atom argument: a variable slot (slot ≥ 0) or an
// interned constant (slot < 0, constant ID in c).
type cArg struct {
	slot int
	c    int
}

// cAtom is a compiled body atom: predicate classification resolved once
// and arguments mapped to slots/IDs. It is read-only once compiled.
type cAtom struct {
	pred    string
	negated bool
	builtin bool
	args    []cArg
}

// cRule is a rule compiled for repeated evaluation: variables mapped to
// integer slots and atoms to cAtoms. compileRule yields a template;
// instance plans it for one delta occurrence. A planned instance is
// single-threaded — evalStratum keeps one per (rule, delta-occurrence)
// task so buffers warm up across rounds without any sharing between
// parallel tasks — and shares only the read-only head and body with the
// template and its other instances.
type cRule struct {
	src       Rule
	db        *DB
	headPred  string
	headArity int
	head      []cArg
	body      []cAtom
	nslots    int
	occ       int         // the delta occurrence the plan starts from; -1 for none
	plan      *rulePlan   // nil in a template
	rels      []*relation // per body atom, bound by start (nil: empty relation)
	// Per-run plumbing, set by the owner before each use: the plan's
	// cancellation poll reads ctx (nil: never cancelled), and streamed
	// rows are charged to cfg's budget and collector.
	ctx context.Context
	cfg evalConfig
	// Rows a parallel round buffers are carved from arena chunks into
	// outBuf, which is reused across rounds: they are ultimately adopted
	// by the database, so allocating them one slice at a time would
	// dominate GC work on derivation-heavy programs.
	arena  []int
	outBuf [][]int
}

// compileRule maps the rule's variables to integer slots and its atom
// arguments to slot/constant descriptors, so the per-row work of its
// plans touches no maps. All program constants must already be interned
// when compilation can race with other DB readers (Eval guarantees this
// by interning up front and compiling serially).
func compileRule(r Rule, db *DB) *cRule {
	slots := map[string]int{}
	compileArgs := func(args []Term) []cArg {
		out := make([]cArg, len(args))
		for i, t := range args {
			if t.IsVar() {
				s, ok := slots[t.Var]
				if !ok {
					s = len(slots)
					slots[t.Var] = s
				}
				out[i] = cArg{slot: s}
			} else {
				out[i] = cArg{slot: -1, c: db.Intern(t.Const)}
			}
		}
		return out
	}
	body := make([]cAtom, len(r.Body))
	for i, a := range r.Body {
		body[i] = cAtom{
			pred:    a.Pred,
			negated: a.Negated,
			builtin: IsBuiltin(a.Pred),
			args:    compileArgs(a.Args),
		}
	}
	head := compileArgs(r.Head.Args)
	return &cRule{
		src:       r,
		db:        db,
		headPred:  r.Head.Pred,
		headArity: len(r.Head.Args),
		head:      head,
		body:      body,
		nslots:    len(slots),
		occ:       -1,
	}
}

// instance returns a copy of the compiled rule planned with body
// occurrence occ as the delta (-1: the full first pass). cfg's collector
// counts the plan's pushed-down joins. The copy shares the template's
// head and body, so a rule's instances cost only their plans.
func (t *cRule) instance(occ int, cfg evalConfig) (*cRule, error) {
	c := &cRule{
		src:       t.src,
		db:        t.db,
		headPred:  t.headPred,
		headArity: t.headArity,
		head:      t.head,
		body:      t.body,
		nslots:    t.nslots,
		occ:       occ,
		rels:      make([]*relation, len(t.body)),
		cfg:       cfg,
	}
	plan, err := buildPlan(c)
	if err != nil {
		return nil, err
	}
	c.plan = plan
	return c, nil
}

// arenaCopy copies a borrowed row into an arena-carved tuple the caller
// may retain (parallel tasks buffering new derivations).
func (c *cRule) arenaCopy(row []int) []int {
	n := len(row)
	if len(c.arena) < n {
		c.arena = make([]int, 4096+n)
	}
	tuple := c.arena[:n:n]
	c.arena = c.arena[n:]
	copy(tuple, row)
	return tuple
}
