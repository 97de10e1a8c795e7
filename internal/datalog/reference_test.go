package datalog

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/stage"
)

// naiveEval is a deliberately simple reference evaluator: stratified, but
// within each stratum it re-runs every rule in full until a whole pass
// derives nothing new (naive fixpoint, no deltas, no parallelism), each
// rule by naiveRule's nested-loop join. The differential tests below
// hold the optimized semi-naive engine to it.
func naiveEval(p *Program, edb *DB) (*DB, error) {
	return naiveEvalCapped(p, edb, 0)
}

// errStepCap reports that naiveEvalCapped gave up at its step cap.
var errStepCap = errors.New("reference: step cap reached")

// naiveEvalCapped is naiveEval giving up with errStepCap once its joins
// have considered more than maxSteps stored tuples (0: no cap).
func naiveEvalCapped(p *Program, edb *DB, maxSteps int) (*DB, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	strata, err := stratify(p)
	if err != nil {
		return nil, err
	}
	db := edb.Clone()
	steps := 0
	for _, stratum := range strata {
		inStratum := map[string]bool{}
		for _, pred := range stratum {
			inStratum[pred] = true
		}
		var rules []Rule
		for _, r := range p.Rules {
			if inStratum[r.Head.Pred] {
				rules = append(rules, r)
			}
		}
		for changed := true; changed; {
			changed = false
			for _, r := range rules {
				err := naiveRule(r, db, &steps, maxSteps, func(tuple []int) {
					if db.rel(r.Head.Pred, len(tuple)).insertOwned(tuple) {
						changed = true
					}
				})
				if err != nil {
					return nil, err
				}
			}
		}
	}
	return db, nil
}

// naiveRule emits the head tuple of every assignment that satisfies r's
// body, found by a plain nested-loop join that shares no code with the
// engines' slot plans: the positive atoms in body order, each against
// every stored tuple of its arity, then the negated and builtin atoms as
// checks on the complete assignment (safety binds all their variables).
// Every stored tuple considered counts one step in *steps; past maxSteps
// (if positive) the join gives up with errStepCap.
func naiveRule(r Rule, db *DB, steps *int, maxSteps int, emit func([]int)) error {
	var pos, checks []Atom
	for _, a := range r.Body {
		if a.Negated || IsBuiltin(a.Pred) {
			checks = append(checks, a)
		} else {
			pos = append(pos, a)
		}
	}
	binding := map[string]int{}
	ground := func(args []Term) []int {
		t := make([]int, len(args))
		for i, a := range args {
			if a.IsVar() {
				t[i] = binding[a.Var]
			} else {
				t[i] = db.Intern(a.Const)
			}
		}
		return t
	}
	var join func(k int) error
	join = func(k int) error {
		if k < len(pos) {
			a := pos[k]
			rel := db.rels[a.Pred]
			if rel == nil {
				return nil
			}
			for _, t := range rel.tuples {
				if *steps++; maxSteps > 0 && *steps > maxSteps {
					return errStepCap
				}
				if len(t) != len(a.Args) {
					continue
				}
				var fresh []string
				ok := true
				for i, arg := range a.Args {
					v, bound := binding[arg.Var]
					switch {
					case !arg.IsVar():
						ok = db.Intern(arg.Const) == t[i]
					case bound:
						ok = v == t[i]
					default:
						binding[arg.Var] = t[i]
						fresh = append(fresh, arg.Var)
					}
					if !ok {
						break
					}
				}
				var err error
				if ok {
					err = join(k + 1)
				}
				for _, v := range fresh {
					delete(binding, v)
				}
				if err != nil {
					return err
				}
			}
			return nil
		}
		for _, a := range checks {
			args := ground(a.Args)
			var holds bool
			if IsBuiltin(a.Pred) {
				names := make([]string, len(args))
				for i, id := range args {
					names[i] = db.ConstName(id)
				}
				var err error
				if holds, err = callBuiltin(a.Pred, names); err != nil {
					return err
				}
			} else if rel := db.rels[a.Pred]; rel != nil {
				holds = rel.has(args)
			}
			if holds == a.Negated {
				return nil
			}
		}
		emit(ground(r.Head.Args))
		return nil
	}
	return join(0)
}

// sameFacts compares two result databases predicate by predicate.
func sameFacts(t *testing.T, a, b *DB, context string) {
	t.Helper()
	preds := map[string]bool{}
	for _, p := range a.Preds() {
		preds[p] = true
	}
	for _, p := range b.Preds() {
		preds[p] = true
	}
	for p := range preds {
		ta, tb := a.Tuples(p), b.Tuples(p)
		if len(ta) == 0 && len(tb) == 0 {
			continue
		}
		if !reflect.DeepEqual(ta, tb) {
			t.Fatalf("%s: %s differs:\n  got  %v\n  want %v", context, p, ta, tb)
		}
	}
}

// randStratifiedProgram generates a small random program over the EDB
// predicates e/2 and n/1 with intensional layers p/1 < q/1 < r/2:
// negation only reaches strictly lower layers or the EDB, so every
// generated program is stratified; heads and negated atoms only use
// variables bound by an earlier positive atom, so every program is safe.
func randStratifiedProgram(rng *rand.Rand) *Program {
	idb := []struct {
		pred  string
		arity int
		layer int
	}{{"p", 1, 0}, {"q", 1, 1}, {"r", 2, 2}}
	consts := []string{"a", "b", "c"}
	var rules []string
	nRules := 2 + rng.Intn(5)
	for i := 0; i < nRules; i++ {
		h := idb[rng.Intn(len(idb))]
		if rng.Intn(8) == 0 {
			// Ground fact rule.
			args := make([]string, h.arity)
			for j := range args {
				args[j] = consts[rng.Intn(len(consts))]
			}
			rules = append(rules, fmt.Sprintf("%s(%s, %s).", "r", args[0%h.arity], args[(h.arity-1)%h.arity]))
			continue
		}
		vars := []string{"X", "Y"}
		// The first atom is positive and binds both variables.
		binder := [...]string{"e(X, Y)", "e(Y, X)", "e(X, X), n(Y)", "n(X), n(Y)"}[rng.Intn(4)]
		body := []string{binder}
		term := func() string { // bound variable or constant
			if rng.Intn(3) == 0 {
				return consts[rng.Intn(len(consts))]
			}
			return vars[rng.Intn(len(vars))]
		}
		for extra := rng.Intn(3); extra > 0; extra-- {
			switch k := rng.Intn(4); {
			case k == 0: // positive EDB filter
				body = append(body, fmt.Sprintf("e(%s, %s)", term(), term()))
			case k == 1: // negated EDB
				body = append(body, fmt.Sprintf("not n(%s)", term()))
			case k == 2: // positive IDB, any layer (recursion allowed)
				o := idb[rng.Intn(len(idb))]
				args := make([]string, o.arity)
				for j := range args {
					args[j] = term()
				}
				body = append(body, o.pred+"("+args[0]+sec(args)+")")
			default: // negated IDB, strictly lower layer only
				if h.layer == 0 {
					body = append(body, fmt.Sprintf("not e(%s, %s)", term(), term()))
					continue
				}
				o := idb[rng.Intn(h.layer)]
				args := make([]string, o.arity)
				for j := range args {
					args[j] = term()
				}
				body = append(body, "not "+o.pred+"("+args[0]+sec(args)+")")
			}
		}
		hargs := make([]string, h.arity)
		for j := range hargs {
			hargs[j] = term()
		}
		rules = append(rules, fmt.Sprintf("%s(%s%s) :- %s.", h.pred, hargs[0], sec(hargs), joinBody(body)))
	}
	prog, err := Parse(joinRules(rules))
	if err != nil {
		return nil
	}
	return prog
}

func sec(args []string) string {
	if len(args) < 2 {
		return ""
	}
	return ", " + args[1]
}

func joinBody(atoms []string) string {
	s := atoms[0]
	for _, a := range atoms[1:] {
		s += ", " + a
	}
	return s
}

func joinRules(rules []string) string {
	s := ""
	for _, r := range rules {
		s += r + "\n"
	}
	return s
}

// TestDifferentialRandomPrograms holds the semi-naive engine's slot
// plans to the naive reference evaluator on randomized stratified
// programs, so neither storage, parallelism nor planning changes can
// silently change semantics. The reference joins by naiveRule's nested
// loops, never through a plan, so the comparison is not circular.
func TestDifferentialRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	edb := func() *DB {
		db := NewDB()
		consts := []string{"a", "b", "c", "d", "f"}
		for i := 0; i < 10; i++ {
			db.AddFact("e", consts[rng.Intn(len(consts))], consts[rng.Intn(len(consts))])
		}
		for i := 0; i < 3; i++ {
			db.AddFact("n", consts[rng.Intn(len(consts))])
		}
		return db
	}
	tried, run := 0, 0
	for run < 250 && tried < 2500 {
		tried++
		p := randStratifiedProgram(rng)
		if p == nil || p.Validate() != nil {
			continue
		}
		run++
		db := edb()
		want, refErr := naiveEval(p, db)
		got, err := Eval(p, db)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("program %v: engine disagrees with reference on error: %v vs %v", p, err, refErr)
		}
		if err != nil {
			continue
		}
		sameFacts(t, got, want, fmt.Sprintf("program #%d %v", run, p))
	}
	if run < 100 {
		t.Fatalf("generator too weak: only %d/%d candidates were valid programs", run, tried)
	}
}

// TestDifferentialKnownPrograms runs the same comparison on the classic
// fixed programs that stress recursion shapes the generator rarely hits.
// The last two make a round's delta occurrence an atom without
// variables, which the slot planner would turn into a dedup-table test
// that a delta relation cannot answer.
func TestDifferentialKnownPrograms(t *testing.T) {
	cases := []string{
		"path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), e(Y, Z).",
		"sg(X, X) :- n(X).\nsg(X, Y) :- e(X, XP), sg(XP, YP), e(Y, YP).",
		"t(X, Y) :- e(X, Y).\nt(X, Z) :- t(X, Y), t(Y, Z).",
		"odd(Y) :- n(X), e(X, Y), not n(Y).\nbad(X) :- n(X), not odd(X).",
		// Disconnected body components: a cross product, with a filter
		// on top.
		"pair(X, Y) :- n(X), n(Y), not e(X, Y).\ntri(X, Y) :- pair(X, Y), e(Y, X).",
		// Constant pushdown into probes, repeated variables in one atom.
		"loop(X) :- e(X, X).\nanchored(Y) :- e(v0, Y), not loop(Y).",
		"a :- b.\nb :- a.\nb.",
		"p(v1) :- p(v0).\np(v0).",
	}
	for _, src := range cases {
		p := MustParse(src)
		db := NewDB()
		names := make([]string, 12)
		for i := range names {
			names[i] = "v" + strconv.Itoa(i)
		}
		for i := 0; i+1 < len(names); i++ {
			db.AddFact("e", names[i], names[i+1])
			db.AddFact("n", names[i])
		}
		db.AddFact("e", names[len(names)-1], names[0]) // close the cycle
		want, err := naiveEval(p, db)
		if err != nil {
			t.Fatalf("%q (reference): %v", src, err)
		}
		got, err := Eval(p, db)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		sameFacts(t, got, want, src)
	}
}

// TestParallelDeterminism checks the determinism claim: the derived fact
// set is identical across worker counts, including runs big enough to
// actually take the parallel path (where tasks pre-filter against the
// frozen head relation and reused per-task buffers merge in task order).
func TestParallelDeterminism(t *testing.T) {
	t.Parallel()
	p := MustParse("path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), e(Y, Z).")
	db := NewDB()
	for i := 0; i < 300; i++ {
		db.AddFact("e", "v"+strconv.Itoa(i), "v"+strconv.Itoa(i+1))
	}
	serial, err := EvalCtx(stage.WithWorkers(context.Background(), 1), p, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 13} {
		out, err := EvalCtx(stage.WithWorkers(context.Background(), workers), p, db)
		if err != nil {
			t.Fatal(err)
		}
		sameFacts(t, out, serial, fmt.Sprintf("workers=%d", workers))
	}
}
