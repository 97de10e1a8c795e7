package datalog

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/datalog/ra"
	"repro/internal/faultinject"
	"repro/internal/stage"
)

// planBuilds counts rulePlan constructions process-wide. Plans carry
// the full pushdown analysis — atom order, probe patterns, filter
// placement — so the regression test pins that evaluation builds
// exactly one plan per compiled rule instance, never one per round or
// per eval call.
var planBuilds atomic.Int64

// PlanBuilds reports the total number of streaming rule plans built
// since process start; tests diff it around an evaluation.
func PlanBuilds() int64 { return planBuilds.Load() }

// rulePlan is the pushdown-analyzed streaming execution plan of one
// compiled rule instance: a pull-based operator tree over the body's
// relations, projected to the head. Built once per (rule, delta
// occurrence) instance and re-used every round; only the relation
// bindings (full vs delta) change between eval calls.
type rulePlan struct {
	root ra.Iterator
	ctl  *ra.Ctl
	// binds are the scan/probe adapters to re-point at the current
	// relation (full or delta) before each eval call.
	binds []*boundRel
	// groundFilters are variable-free negated/builtin atoms, hoisted
	// out of the pipeline and checked once per eval call, before any
	// join work.
	groundFilters []*filterSpec
	// pushdowns counts lookup joins planned with at least one probe
	// constraint pushed into a relation index.
	pushdowns int64
	// flushed is the ctl.Streamed watermark already reported to the
	// stats counters and charged against the stream-tuples budget.
	flushed int64
}

// boundRel adapts one body atom's relation to ra.Relation. The executor
// re-points r before every eval call; a nil r is an empty relation (a
// predicate with no stored facts).
type boundRel struct {
	r    *relation
	atom int // body atom index, for rebinding
}

func (b *boundRel) Rows() [][]int {
	if b.r == nil {
		return nil
	}
	return b.r.tuples
}

func (b *boundRel) Probe(pattern []int, c *ra.Candidates) {
	if b.r == nil {
		c.SetEmpty()
		return
	}
	b.r.probe(pattern, c)
}

// unitIter emits a single zero-width row per pass: the source under
// rules whose body has no positive relational atoms.
type unitIter struct{ done bool }

func (u *unitIter) Reset() { u.done = false }

func (u *unitIter) Next() (ra.Row, bool, error) {
	if u.done {
		return nil, false, nil
	}
	u.done = true
	return ra.Row{}, true, nil
}

// filterSpec evaluates one negated or builtin body atom against a
// pipeline row: σ that cannot be pushed into a probe. Scratch buffers
// live on the spec; a plan (like its cRule) is single-goroutine.
type filterSpec struct {
	c     *cRule
	atom  int      // body index
	cols  []int    // per arg: pipeline column, or -1 for a constant
	args  []int    // ground argument buffer
	names []string // builtin name buffer (builtins only)
}

func (f *filterSpec) check(row ra.Row) (bool, error) {
	a := &f.c.body[f.atom]
	for i, col := range f.cols {
		if col >= 0 {
			f.args[i] = row[col]
		} else {
			f.args[i] = a.args[i].c
		}
	}
	var holds bool
	if a.builtin {
		for j, id := range f.args {
			f.names[j] = f.c.db.ConstName(id)
		}
		var err error
		holds, err = callBuiltin(a.pred, f.names)
		if err != nil {
			return false, err
		}
	} else {
		r := f.c.rels[f.atom]
		holds = r != nil && r.has(f.args)
	}
	if a.negated {
		holds = !holds
	}
	return holds, nil
}

// buildPlan analyzes the rule once and assembles its streaming operator
// tree: positive atoms ordered delta-first then by shared variables
// (left-deep lookup joins with constants and join columns pushed into
// the index probes; symmetric hash joins only across disconnected
// components), negated/builtin atoms placed as filters at the earliest
// point their variables are bound, dead columns dropped at the source,
// and a constant-space head projection on top.
func buildPlan(c *cRule) (*rulePlan, error) {
	planBuilds.Add(1)
	p := &rulePlan{ctl: &ra.Ctl{}}
	deltaOcc := c.occ
	p.ctl.Check = func() error {
		if c.ctx != nil {
			if err := c.ctx.Err(); err != nil {
				return stage.Wrap(stage.Eval, err)
			}
		}
		return p.flush(c)
	}

	var pos, filters []int
	for i := range c.body {
		if a := &c.body[i]; a.builtin || a.negated {
			filters = append(filters, i)
		} else {
			pos = append(pos, i)
		}
	}

	// Which slots need a pipeline column: those read outside the atom
	// that first binds them (head, filters, or a second positive atom).
	nslots := c.nslots
	posCount := make([]int, nslots)
	needCol := make([]bool, nslots)
	seenInAtom := make([]int, nslots)
	for i := range seenInAtom {
		seenInAtom[i] = -1
	}
	for _, ai := range pos {
		for _, ar := range c.body[ai].args {
			if ar.slot >= 0 && seenInAtom[ar.slot] != ai {
				seenInAtom[ar.slot] = ai
				posCount[ar.slot]++
			}
		}
	}
	mark := func(args []cArg) {
		for _, ar := range args {
			if ar.slot >= 0 {
				needCol[ar.slot] = true
			}
		}
	}
	mark(c.head)
	for _, fi := range filters {
		mark(c.body[fi].args)
	}
	for s, n := range posCount {
		if n > 1 {
			needCol[s] = true
		}
	}

	// Atom order: the delta occurrence first (the semi-naive restriction
	// drives the whole pipeline), then greedily any atom sharing a bound
	// variable; an atom sharing none starts a disconnected component.
	used := make([]bool, len(c.body))
	bound := make([]bool, nslots)
	order := make([]int, 0, len(pos))
	take := func(ai int) {
		used[ai] = true
		order = append(order, ai)
		for _, ar := range c.body[ai].args {
			if ar.slot >= 0 {
				bound[ar.slot] = true
			}
		}
	}
	if deltaOcc >= 0 {
		take(deltaOcc)
	}
	for len(order) < len(pos) {
		picked := -1
		for _, ai := range pos {
			if used[ai] {
				continue
			}
			for _, ar := range c.body[ai].args {
				if ar.slot >= 0 && bound[ar.slot] {
					picked = ai
					break
				}
			}
			if picked >= 0 {
				break
			}
		}
		if picked < 0 { // new component: first unprocessed atom
			for _, ai := range pos {
				if !used[ai] {
					picked = ai
					break
				}
			}
		}
		take(picked)
	}

	// Filter placement helpers. A filter is plannable once all its
	// variables have pipeline columns; ground filters hoist out of the
	// tree entirely.
	slotCol := make([]int, nslots)
	for i := range slotCol {
		slotCol[i] = -1
	}
	filterPlaced := make([]bool, len(c.body))
	newFilter := func(fi int) *filterSpec {
		a := &c.body[fi]
		n := len(a.args)
		f := &filterSpec{c: c, atom: fi, cols: make([]int, n), args: make([]int, n)}
		if a.builtin {
			f.names = make([]string, n)
		}
		for i, ar := range a.args {
			f.cols[i] = -1
			if ar.slot >= 0 {
				f.cols[i] = slotCol[ar.slot]
			}
		}
		return f
	}
	for _, fi := range filters {
		ground := true
		for _, ar := range c.body[fi].args {
			if ar.slot >= 0 {
				ground = false
				break
			}
		}
		if ground {
			filterPlaced[fi] = true
			p.groundFilters = append(p.groundFilters, newFilter(fi))
		}
	}

	// Assemble the left-deep tree.
	var tree ra.Iterator
	width := 0
	colBound := make([]bool, nslots) // slot has a pipeline column or was dropped
	for _, ai := range order {
		a := &c.body[ai]
		terms := make([]ra.Term, len(a.args))
		shares := false
		seenAt := make(map[int]int, len(a.args))
		outs := 0
		for j, ar := range a.args {
			switch {
			case ar.slot < 0:
				terms[j] = ra.Term{Kind: ra.TConst, Idx: ar.c}
			case colBound[ar.slot] && slotCol[ar.slot] >= 0:
				terms[j] = ra.Term{Kind: ra.TCol, Idx: slotCol[ar.slot]}
				shares = true
			case colBound[ar.slot]:
				// Bound earlier but column dropped: impossible — a slot
				// in two atoms always needs a column.
				return nil, fmt.Errorf("datalog: internal error: dropped slot reused in rule %s", c.src)
			default:
				if at, ok := seenAt[ar.slot]; ok {
					terms[j] = ra.Term{Kind: ra.TSame, Idx: at}
					continue
				}
				seenAt[ar.slot] = j
				if needCol[ar.slot] {
					terms[j] = ra.Term{Kind: ra.TOut}
					slotCol[ar.slot] = width + outs
					outs++
				} else {
					terms[j] = ra.Term{Kind: ra.TDrop}
				}
			}
		}
		for s := range seenAt {
			colBound[s] = true
		}
		b := &boundRel{atom: ai}
		p.binds = append(p.binds, b)
		switch {
		case tree == nil:
			tree = ra.NewScan(b, terms, p.ctl)
		case shares:
			j := ra.NewLookupJoin(tree, b, terms, width, p.ctl)
			if j.Pushdown() > 0 {
				p.pushdowns++
			}
			tree = j
		default:
			// Disconnected component: cross-join via a symmetric hash
			// join of the tree so far against the atom's scan.
			right := ra.NewScan(b, terms, p.ctl)
			tree = ra.NewHashJoin(tree, right, nil, nil, width, outs, p.ctl)
		}
		width += outs

		// Attach every filter whose variables are now all columned.
		for _, fi := range filters {
			if filterPlaced[fi] {
				continue
			}
			ready := true
			for _, ar := range c.body[fi].args {
				if ar.slot >= 0 && slotCol[ar.slot] < 0 {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			filterPlaced[fi] = true
			tree = ra.NewSelect(tree, newFilter(fi).check, p.ctl)
		}
	}
	if tree == nil {
		tree = &unitIter{}
	}
	for _, fi := range filters {
		if !filterPlaced[fi] {
			return nil, fmt.Errorf("datalog: internal error: unbound atom remains in rule %s", c.src)
		}
	}

	headCols := make([]ra.Term, len(c.head))
	for i, ar := range c.head {
		if ar.slot >= 0 {
			if slotCol[ar.slot] < 0 {
				return nil, fmt.Errorf("datalog: internal error: unbound head variable in rule %s", c.src)
			}
			headCols[i] = ra.Term{Kind: ra.TCol, Idx: slotCol[ar.slot]}
		} else {
			headCols[i] = ra.Term{Kind: ra.TConst, Idx: ar.c}
		}
	}
	p.root = ra.NewProject(tree, headCols, p.ctl)
	addJoinsPushedDown(c.cfg.collector, p.pushdowns)
	return p, nil
}

// flush reports the rows streamed since the last flush to the stats
// counters and charges them against the stream-tuples budget.
func (p *rulePlan) flush(c *cRule) error {
	d := p.ctl.Streamed - p.flushed
	if d == 0 {
		return nil
	}
	p.flushed = p.ctl.Streamed
	addTuplesStreamed(c.cfg.collector, d)
	if c.cfg.budget != nil {
		if err := c.cfg.budget.AddStreamTuples(d); err != nil {
			return stage.Wrap(stage.Eval, err)
		}
	}
	return nil
}

// eval runs the rule's plan and pulls every head row into emit. The
// delta occurrence, if the plan has one, reads delta; every other atom
// reads its stored relation. Emitted rows are the projection's reused
// buffer — sinks copy what they keep.
//
// Concurrent eval calls on distinct cRule instances are read-only on the
// DB apart from lazy index builds, which the relations synchronize
// internally.
func (c *cRule) eval(delta *relation, emit func([]int)) error {
	ok, err := c.start(delta)
	for ok && err == nil {
		var row []int
		if row, ok, err = c.plan.root.Next(); ok {
			emit(row)
		}
	}
	return c.finish(err)
}

// start resolves every body atom's relation — a stored relation, or
// delta at the delta occurrence — rebinds the plan to them, decides the
// ground filters and rewinds the operator tree. It reports false when a
// ground filter fails, so the plan yields nothing.
func (c *cRule) start(delta *relation) (bool, error) {
	for i := range c.body {
		a := &c.body[i]
		if a.builtin {
			continue
		}
		r := c.db.rels[a.pred]
		if i == c.occ {
			r = delta
		}
		c.rels[i] = ofArity(r, len(a.args))
	}
	p := c.plan
	for _, b := range p.binds {
		b.r = c.rels[b.atom]
	}
	for _, f := range p.groundFilters {
		if holds, err := f.check(nil); err != nil || !holds {
			return false, err
		}
	}
	p.root.Reset()
	return true, nil
}

// finish closes one run of the plan: it reports the streamed rows and
// the peak buffered, and tags a pipeline error with its stage.
func (c *cRule) finish(err error) error {
	p := c.plan
	notePeakBuffered(c.cfg.collector, p.ctl.PeakBuffered)
	if ferr := p.flush(c); ferr != nil {
		return ferr
	}
	if errors.Is(err, faultinject.ErrInjected) {
		err = stage.Wrap(stage.Eval, err)
	}
	return err
}
