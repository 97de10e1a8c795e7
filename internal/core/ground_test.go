package core

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/datalog"
	"repro/internal/decompose"
	"repro/internal/horn"
	"repro/internal/mso"
	"repro/internal/structure"
	"repro/internal/tree"
)

var sigColoredTree = structure.MustSignature(
	structure.Predicate{Name: "edge", Arity: 2},
	structure.Predicate{Name: "c", Arity: 1},
)

// coloredTreeTD returns the τ_td database of a random tree on n
// elements over {edge/2, c/1}, each element colored with probability
// ½, together with the normalized width its program is compiled for.
func coloredTreeTD(tb testing.TB, n int, seed int64) (*datalog.DB, int) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	st := structure.New(sigColoredTree)
	for i := 0; i < n; i++ {
		st.AddElem("v" + itoa(i))
	}
	for v := 1; v < n; v++ {
		st.MustAddTuple("edge", rng.Intn(v), v)
	}
	for v := 0; v < n; v++ {
		if rng.Intn(2) == 0 {
			st.MustAddTuple("c", v)
		}
	}
	return tdOf(tb, st)
}

// tdOf returns the τ_td database of st, built as the session layer
// builds it, together with the normalized width its programs are
// compiled for.
func tdOf(tb testing.TB, st *structure.Structure) (*datalog.DB, int) {
	tb.Helper()
	ctx := context.Background()
	d, _, err := decompose.StructureLadderCtx(ctx, st)
	if err != nil {
		tb.Fatal(err)
	}
	norm, err := tree.NormalizeTupleCtx(ctx, d)
	if err != nil {
		tb.Fatal(err)
	}
	w := norm.Width()
	td, _, err := tree.BuildTDCtx(ctx, st, norm, w)
	if err != nil {
		tb.Fatal(err)
	}
	return datalog.FromStructure(td, ""), w
}

// clauseHash is an FNV-1a hash of a ground Horn program's clause list:
// every head and body literal, in order.
func clauseHash(p *horn.Program) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v int) {
		h ^= uint64(v)
		h *= 1099511628211
	}
	mix(p.NumVars)
	for i := 0; i < p.Len(); i++ {
		head, body := p.Clause(i)
		mix(head)
		mix(len(body))
		for _, b := range body {
			mix(int(b))
		}
	}
	return h
}

// groundPin pins the Theorem 4.4 ground program of one compiled
// formula over coloredTreeTD(n, n): atom count, size |P'| and
// clauseHash.
type groundPin struct {
	formula     string
	n, w        int
	atoms, size int
	hash        uint64
}

// groundPins are the ground programs of c(x), ~c(x) and c(x) | ~c(x)
// compiled over the tree's whole signature {edge/2, c/1}, as the
// original map-binding grounder produced them.
var groundPins = []groundPin{
	{"c(x)", 8, 1, 2696, 8132, 0x863203aa568ea2a5},
	{"c(x)", 13, 1, 3981, 11717, 0x13570a0b71b7ed89},
	{"c(x)", 18, 1, 6674, 20425, 0x88c0e5286c04bea7},
	{"c(x)", 20, 1, 7572, 23242, 0x68feccb9a913c321},
	{"c(x)", 23, 1, 9367, 29068, 0x53fc703e3d22cf2c},
	{"c(x)", 28, 1, 10012, 30283, 0xadf30d77df071bb1},
	{"~c(x)", 8, 1, 2696, 8132, 0x865de784a70294c1},
	{"~c(x)", 13, 1, 3981, 11717, 0xf8589ce3a13ab5d1},
	{"~c(x)", 18, 1, 6674, 20425, 0xe5d714c9db8c7ab3},
	{"~c(x)", 20, 1, 7572, 23242, 0x14fe81f952b1ae65},
	{"~c(x)", 23, 1, 9367, 29068, 0xa11f6221196807b8},
	{"~c(x)", 28, 1, 10012, 30283, 0xb25d855a45fd55f9},
	{"c(x) | ~c(x)", 8, 1, 2696, 12164, 0x92adeb285295a59c},
	{"c(x) | ~c(x)", 13, 1, 3981, 17669, 0x1c93f15e7e89b072},
	{"c(x) | ~c(x)", 18, 1, 6674, 30409, 0xd39536ddbfdcf15},
	{"c(x) | ~c(x)", 20, 1, 7572, 34570, 0x1dd5f7cb1b9393d7},
	{"c(x) | ~c(x)", 23, 1, 9367, 43084, 0xf65fb0df418b357e},
	{"c(x) | ~c(x)", 28, 1, 10012, 45259, 0x26bc2ecc82e1102a},
}

// reductPins are the same formulas compiled over {c/1}, the reduct
// signature Run and the session layer compile them over
// (ReductSignature), on the same trees, recorded when evaluation moved
// onto reducts.
var reductPins = []groundPin{
	{"c(x)", 8, 1, 176, 536, 0x59394be64a44985d},
	{"c(x)", 13, 1, 261, 781, 0xa83a944ff815d31f},
	{"c(x)", 18, 1, 434, 1349, 0x1d1d35365654ea88},
	{"c(x)", 20, 1, 492, 1534, 0x8795266b165e82a9},
	{"c(x)", 23, 1, 607, 1912, 0x5fc3633bef7df87c},
	{"c(x)", 28, 1, 652, 2007, 0xda03b4690d3f9964},
	{"~c(x)", 8, 1, 176, 536, 0x2e83ce9731b3f745},
	{"~c(x)", 13, 1, 261, 781, 0x3237b1cac516e2df},
	{"~c(x)", 18, 1, 434, 1349, 0xcdf4373591237eac},
	{"~c(x)", 20, 1, 492, 1534, 0x48aee91d097f07ed},
	{"~c(x)", 23, 1, 607, 1912, 0x1b27d0dacb156350},
	{"~c(x)", 28, 1, 652, 2007, 0xd1041ef943c45a68},
	{"c(x) | ~c(x)", 8, 1, 176, 788, 0x762dc8d39d840f7f},
	{"c(x) | ~c(x)", 13, 1, 261, 1153, 0x5c13c63e5b2d6542},
	{"c(x) | ~c(x)", 18, 1, 434, 1973, 0x96f7c685f664f1f},
	{"c(x) | ~c(x)", 20, 1, 492, 2242, 0x91fc0c19b5fd667b},
	{"c(x) | ~c(x)", 23, 1, 607, 2788, 0xcb3f2a96a791875f},
	{"c(x) | ~c(x)", 28, 1, 652, 2943, 0xe766a486b15fdf0d},
}

// TestGroundCompiledMSOPinned checks that the slot-plan grounder
// reproduces the pinned ground programs exactly, through both the
// one-shot datalog.Ground and the Grounder carried by Compiled.
func TestGroundCompiledMSOPinned(t *testing.T) {
	type key struct {
		sig     *structure.Signature
		formula string
	}
	compiled := map[key]*Compiled{}
	for _, set := range []struct {
		sig  *structure.Signature
		pins []groundPin
	}{{sigColoredTree, groundPins}, {sigColor, reductPins}} {
		for _, pin := range set.pins {
			edb, w := coloredTreeTD(t, pin.n, int64(pin.n))
			if w != pin.w {
				t.Fatalf("%s n=%d: width %d, pinned %d", pin.formula, pin.n, w, pin.w)
			}
			k := key{set.sig, pin.formula}
			c := compiled[k]
			if c == nil {
				var err error
				if c, err = Compile(set.sig, mso.MustParse(pin.formula), "x", Options{Width: w}); err != nil {
					t.Fatal(err)
				}
				compiled[k] = c
			}
			oneShot, err := datalog.Ground(c.Program, edb.Clone(), datalog.TDFuncDeps(w))
			if err != nil {
				t.Fatal(err)
			}
			carried, err := c.Grounder.Ground(context.Background(), edb)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range []*datalog.GroundProgram{oneShot, carried} {
				if g.NumAtoms() != pin.atoms || g.Size() != pin.size || clauseHash(g.Horn) != pin.hash {
					t.Fatalf("%s over %d predicates, n=%d: %d atoms, size %d, hash %#x; pinned %d, %d, %#x",
						pin.formula, len(set.sig.Predicates()), pin.n, g.NumAtoms(), g.Size(), clauseHash(g.Horn), pin.atoms, pin.size, pin.hash)
				}
			}
		}
	}
}

// TestGrounderConcurrent shares one compiled program's Grounder between
// goroutines, as programs from the session layer's ProgramCache are
// shared: every evaluation must match a serial one.
func TestGrounderConcurrent(t *testing.T) {
	c, edb := compiledColoredTree(t, "c(x)")
	ctx := context.Background()
	want, err := c.Grounder.Eval(ctx, edb.Clone())
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]*datalog.DB, 4)
	errs := make([]error, len(outs))
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = c.Grounder.Eval(ctx, edb.Clone())
		}(i)
	}
	wg.Wait()
	for i, out := range outs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if out.NumFacts() != want.NumFacts() || !reflect.DeepEqual(out.Tuples("phi"), want.Tuples("phi")) {
			t.Fatalf("goroutine %d: %d facts, phi %v; serial %d facts, phi %v",
				i, out.NumFacts(), out.Tuples("phi"), want.NumFacts(), want.Tuples("phi"))
		}
	}
}

// compiledColoredTree compiles formula for a 20-element colored tree
// and returns it with the tree's τ_td database.
func compiledColoredTree(tb testing.TB, formula string) (*Compiled, *datalog.DB) {
	tb.Helper()
	edb, w := coloredTreeTD(tb, 20, 20)
	c, err := Compile(sigColoredTree, mso.MustParse(formula), "x", Options{Width: w})
	if err != nil {
		tb.Fatal(err)
	}
	return c, edb
}

// BenchmarkGroundCompiledMSO times the compiled c(x) program over a
// 20-element colored tree's τ_td, the shape of a cold /eval: its
// compilation, and its evaluation on both eval paths — grounded is
// Theorem 4.4 (ground, solve, copy out the fixpoint), direct the
// semi-naive engine. Each evaluation runs on a fresh copy of the
// database, as the session does. The unprefixed runs compile over the
// tree's whole signature {edge/2, c/1}, as Compile does; the reduct-
// runs over {c/1}, as Run and the session layer do (ReductSignature).
func BenchmarkGroundCompiledMSO(b *testing.B) {
	edb, w := coloredTreeTD(b, 20, 20)
	phi := mso.MustParse("c(x)")
	ctx := context.Background()
	for _, sig := range []struct {
		prefix string
		sig    *structure.Signature
	}{{"", sigColoredTree}, {"reduct-", sigColor}} {
		c, err := Compile(sig.sig, phi, "x", Options{Width: w})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sig.prefix+"compile", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Compile(sig.sig, phi, "x", Options{Width: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, path := range []struct {
			name string
			eval func(*datalog.DB) (*datalog.DB, error)
		}{
			{"grounded", func(db *datalog.DB) (*datalog.DB, error) { return c.Grounder.Eval(ctx, db) }},
			{"direct", func(db *datalog.DB) (*datalog.DB, error) { return datalog.EvalCtx(ctx, c.Program, db) }},
		} {
			b.Run(sig.prefix+path.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := path.eval(edb.Clone()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestGroundAllocGate gates the allocations of one Theorem 4.4
// evaluation: Grounder.Eval of the compiled c(x) program over a fresh
// copy of a 20-element colored tree's τ_td, as a cold session
// evaluation runs it. Allocation counts are deterministic, so the
// ceiling is 1.25× the count measured when the slot-plan grounder
// landed; the map-binding grounder it replaced made 606,394. The count
// does not see how large each allocation is, so the bytes are gated
// too, at 1.10× the volume measured (go1.24, linux/amd64) once prefixes
// were shared and the ground program stored flat.
func TestGroundAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are gated without -race")
	}
	const measured, measuredBytes = 508, 965_397
	c, edb := compiledColoredTree(t, "c(x)")
	ctx := context.Background()
	eval := func() {
		if _, err := c.Grounder.Eval(ctx, edb.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5, eval)
	t.Logf("%.0f allocations per evaluation (ceiling %.0f)", allocs, 1.25*measured)
	if allocs > 1.25*measured {
		t.Fatalf("%.0f allocations per evaluation, ceiling %.0f", allocs, 1.25*measured)
	}
	const runs = 5
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		eval()
	}
	runtime.ReadMemStats(&m1)
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	t.Logf("%.0f B per evaluation (ceiling %.0f)", bytes, 1.10*measuredBytes)
	if bytes > 1.10*measuredBytes {
		t.Fatalf("%.0f B per evaluation, ceiling %.0f", bytes, 1.10*measuredBytes)
	}
}
