package datalog

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/stage"
)

// edbFromFacts builds an extensional database from a fact list.
func edbFromFacts(facts []Fact) *DB {
	db := NewDB()
	for _, f := range facts {
		db.AddFact(f.Pred, f.Args...)
	}
	return db
}

// TestApplyDeltaDifferential holds incremental maintenance to the cold
// engine on randomized stratified programs: after a batch of random
// insert/retract edits, the maintained fixpoint must equal a cold Eval
// of the edited EDB. Programs outside the supported fragment (negation
// over intensional predicates) must return the ErrDeltaUnsupported
// sentinel without touching the database.
func TestApplyDeltaDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	consts := []string{"a", "b", "c", "d", "f"}
	randFact := func() Fact {
		if rng.Intn(3) == 0 {
			return Fact{Pred: "n", Args: []string{consts[rng.Intn(len(consts))]}}
		}
		return Fact{Pred: "e", Args: []string{consts[rng.Intn(len(consts))], consts[rng.Intn(len(consts))]}}
	}
	tried, run, unsupported := 0, 0, 0
	for run < 200 && tried < 2500 {
		tried++
		p := randStratifiedProgram(rng)
		if p == nil || p.Validate() != nil {
			continue
		}
		run++
		var facts []Fact
		for i := 0; i < 10; i++ {
			facts = append(facts, randFact())
		}
		// Random edit batch: deletions of present facts, fresh insertions.
		var ins, del []Fact
		for i := 0; i < 1+rng.Intn(4); i++ {
			if len(facts) > 0 && rng.Intn(2) == 0 {
				del = append(del, facts[rng.Intn(len(facts))])
			} else {
				ins = append(ins, randFact())
			}
		}
		after := append([]Fact(nil), ins...)
		for _, f := range facts {
			dead := false
			for _, d := range del {
				if f.Pred == d.Pred && fmt.Sprint(f.Args) == fmt.Sprint(d.Args) {
					dead = true
					break
				}
			}
			if !dead {
				after = append(after, f)
			}
		}
		inc, err := Eval(p, edbFromFacts(facts))
		if err != nil {
			continue
		}
		want, coldErr := Eval(p, edbFromFacts(after))
		_, derr := ApplyDelta(p, inc, ins, del)
		if errors.Is(derr, ErrDeltaUnsupported) {
			unsupported++
			continue
		}
		if derr != nil || coldErr != nil {
			t.Fatalf("program #%d %v: delta err %v, cold err %v", run, p, derr, coldErr)
		}
		sameFacts(t, inc, want, fmt.Sprintf("program #%d ins=%v del=%v %v", run, ins, del, p))
	}
	if run < 100 {
		t.Fatalf("generator too weak: only %d/%d candidates were valid programs", run, tried)
	}
	t.Logf("%d programs, %d unsupported (negated IDB) fell back", run, unsupported)
}

// TestApplyDeltaEditSequence maintains classic recursive programs through
// a 50-edit random insert/retract sequence, comparing the maintained
// database to a cold evaluation after every single edit — the
// datalog-layer half of the mutation differential suite. Every program
// must see facts over-deleted and re-derived along the way. The last
// program covers the head shapes the re-derive check seeds its plan
// from that the random generator never produces: 0-ary heads, head
// constants and repeated head variables, with a neq builtin and negated
// extensional atoms left as filters over the seeded columns.
func TestApplyDeltaEditSequence(t *testing.T) {
	progs := []string{
		"path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), e(Y, Z).",
		"sg(X, X) :- n(X).\nsg(X, Y) :- e(X, XP), sg(XP, YP), e(Y, YP).",
		"odd(Y) :- n(X), e(X, Y), not n(Y).\nreach(X) :- odd(X).\nreach(Y) :- reach(X), e(X, Y).",
		"any :- e(X, Y).\nloop :- e(X, X), not n(X).\ndiff(X) :- e(X, Y), neq(X, Y).\n" +
			"lone(X, a) :- e(X, Y), not n(Y).\nboth(X, X) :- e(X, Y), e(Y, X).\n" +
			"reach(X) :- diff(X), not n(X).\nreach(Y) :- reach(X), e(X, Y), neq(Y, v0).",
	}
	for pi, src := range progs {
		p := MustParse(src)
		rng := rand.New(rand.NewSource(int64(100 + pi)))
		names := make([]string, 10)
		for i := range names {
			names[i] = "v" + strconv.Itoa(i)
		}
		randFact := func() Fact {
			if rng.Intn(3) == 0 {
				return Fact{Pred: "n", Args: []string{names[rng.Intn(len(names))]}}
			}
			return Fact{Pred: "e", Args: []string{names[rng.Intn(len(names))], names[rng.Intn(len(names))]}}
		}
		var facts []Fact
		for i := 0; i < 12; i++ {
			facts = append(facts, randFact())
		}
		cur := append([]Fact(nil), facts...)
		inc, err := Eval(p, edbFromFacts(cur))
		if err != nil {
			t.Fatal(err)
		}
		var total DeltaStats
		for step := 0; step < 50; step++ {
			var ins, del []Fact
			if len(cur) > 0 && rng.Intn(2) == 0 {
				f := cur[rng.Intn(len(cur))]
				del = append(del, f)
				live := cur[:0] // the DB dedups, so retract every copy
				for _, g := range cur {
					if g.Pred != f.Pred || fmt.Sprint(g.Args) != fmt.Sprint(f.Args) {
						live = append(live, g)
					}
				}
				cur = live
			} else {
				f := randFact()
				ins = append(ins, f)
				cur = append(cur, f)
			}
			st, err := ApplyDelta(p, inc, ins, del)
			if err != nil {
				t.Fatalf("prog %d step %d: %v", pi, step, err)
			}
			total.Overdeleted += st.Overdeleted
			total.Rederived += st.Rederived
			want, err := Eval(p, edbFromFacts(cur))
			if err != nil {
				t.Fatal(err)
			}
			sameFacts(t, inc, want, fmt.Sprintf("prog %d step %d ins=%v del=%v", pi, step, ins, del))
		}
		if total.Overdeleted == 0 || total.Rederived == 0 {
			t.Errorf("prog %d: %d over-deleted, %d re-derived over 50 edits; want both > 0", pi, total.Overdeleted, total.Rederived)
		}
	}
}

// TestApplyDeltaWarmEditBuildsNoPlan pins the plan caches on the delta
// index: once an edit and its inverse have run against a database, every
// plan they need (per-occurrence, flipped and head-seeded) exists, so
// repeating them builds none.
func TestApplyDeltaWarmEditBuildsNoPlan(t *testing.T) {
	p := MustParse("odd(Y) :- n(X), e(X, Y), not n(Y).\nreach(X) :- odd(X).\n" +
		"reach(Y) :- reach(X), e(X, Y).\nany :- reach(X), neq(X, v0).")
	db := NewDB()
	for i := 0; i < 8; i++ {
		db.AddFact("e", "v"+strconv.Itoa(i), "v"+strconv.Itoa(i+1))
		db.AddFact("e", "v"+strconv.Itoa(i), "v"+strconv.Itoa((i+3)%9))
	}
	db.AddFact("n", "v0")
	out, err := Eval(p, db)
	if err != nil {
		t.Fatal(err)
	}
	edits := [][2][]Fact{
		{nil, {{Pred: "e", Args: []string{"v1", "v2"}}}},
		{{{Pred: "e", Args: []string{"v1", "v2"}}}, nil},
		{{{Pred: "n", Args: []string{"v4"}}}, nil},
		{nil, {{Pred: "n", Args: []string{"v4"}}}},
	}
	apply := func() DeltaStats {
		var total DeltaStats
		for _, e := range edits {
			st, err := ApplyDelta(p, out, e[0], e[1])
			if err != nil {
				t.Fatal(err)
			}
			total.Overdeleted += st.Overdeleted
			total.Rederived += st.Rederived
			total.Derived += st.Derived
		}
		return total
	}
	first := apply()
	if first.Overdeleted == 0 || first.Rederived == 0 || first.Derived == 0 {
		t.Fatalf("edits do not exercise every phase: %+v", first)
	}
	before := PlanBuilds()
	if again := apply(); again != first {
		t.Fatalf("repeated edits changed their effect: %+v, first %+v", again, first)
	}
	if built := PlanBuilds() - before; built != 0 {
		t.Fatalf("repeating seen edits on a warm database built %d plans, want 0", built)
	}
	want, err := Eval(p, db)
	if err != nil {
		t.Fatal(err)
	}
	sameFacts(t, out, want, "after the edit round trips")
}

// TestApplyDeltaUnsupported pins the fallback contract: negation over an
// intensional predicate and edits targeting intensional predicates both
// return ErrDeltaUnsupported with the database untouched.
func TestApplyDeltaUnsupported(t *testing.T) {
	p := MustParse("odd(Y) :- n(X), e(X, Y), not n(Y).\nbad(X) :- n(X), not odd(X).")
	db := NewDB()
	db.AddFact("n", "a")
	db.AddFact("e", "a", "b")
	out, err := Eval(p, db)
	if err != nil {
		t.Fatal(err)
	}
	before := fmt.Sprint(out.Tuples("bad"), out.Tuples("odd"))
	if _, err := ApplyDelta(p, out, []Fact{{Pred: "n", Args: []string{"b"}}}, nil); !errors.Is(err, ErrDeltaUnsupported) {
		t.Fatalf("negated IDB: got %v, want ErrDeltaUnsupported", err)
	}
	if got := fmt.Sprint(out.Tuples("bad"), out.Tuples("odd")); got != before {
		t.Fatalf("db mutated on unsupported program: %s vs %s", got, before)
	}

	p2 := MustParse("path(X, Y) :- e(X, Y).")
	db2 := NewDB()
	db2.AddFact("e", "a", "b")
	out2, err := Eval(p2, db2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyDelta(p2, out2, []Fact{{Pred: "path", Args: []string{"a", "c"}}}, nil); !errors.Is(err, ErrDeltaUnsupported) {
		t.Fatalf("intensional edit: got %v, want ErrDeltaUnsupported", err)
	}
}

// TestApplyDeltaOverDeleteChargesStreamTuples pins that a deletion's
// over-delete and re-derive joins stream through plans whose rows count
// against the context budget's MaxStreamTuples, as Eval's do: a pure
// deletion with nothing to re-insert must both register usage and fail
// under a one-row cap.
func TestApplyDeltaOverDeleteChargesStreamTuples(t *testing.T) {
	p := MustParse(tcProgramSrc)
	del := []Fact{{Pred: "edge", Args: []string{"v4", "v5"}}}
	out, err := Eval(p, chainEDB(6))
	if err != nil {
		t.Fatal(err)
	}
	b := &stage.Budget{MaxStreamTuples: 1 << 20}
	st, err := ApplyDeltaCtx(stage.WithBudget(context.Background(), b), p, out, nil, del)
	if err != nil {
		t.Fatal(err)
	}
	if st.Overdeleted == 0 || st.Derived != 0 {
		t.Fatalf("edit is not a pure over-delete: %+v", st)
	}
	if b.StreamTuplesUsed() == 0 {
		t.Fatal("over-delete streamed no rows against the budget")
	}

	out, err = Eval(p, chainEDB(6))
	if err != nil {
		t.Fatal(err)
	}
	capped := stage.WithBudget(context.Background(), &stage.Budget{MaxStreamTuples: 1})
	if _, err := ApplyDeltaCtx(capped, p, out, nil, del); !errors.Is(err, stage.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want the stream-tuples budget exceeded", err)
	}
}
