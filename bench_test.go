package monadic

// Benchmarks regenerating the paper's evaluation (Table 1) and the
// ablation experiments E1–E7 of DESIGN.md. Absolute numbers depend on the
// host; the claims under reproduction are shapes: the monadic-datalog
// column grows linearly while the MSO baseline explodes and dies, the
// linear enumeration beats per-attribute re-rooting, and the generic
// Theorem 4.5 compiler and the MSO-to-FTA route blow up where the
// hand-written programs stay flat.

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/dp"
	"repro/internal/fta"
	"repro/internal/graph"
	"repro/internal/mso"
	"repro/internal/primality"
	"repro/internal/structure"
	"repro/internal/threecol"
	"repro/internal/vcover"
	"repro/internal/wis"
	"repro/internal/workload"
)

// ---- E1: Table 1 — PRIMALITY, monadic datalog vs MSO baseline ----

// BenchmarkTable1MD times the Figure 6 decision program on the Table 1
// workload series (tw 3, #Att = 3·#FD). The paper reports essentially
// linear growth; compare ns/op across sub-benchmarks.
func BenchmarkTable1MD(b *testing.B) {
	for _, nFD := range workload.Table1FDs {
		b.Run(fmt.Sprintf("att=%d", 3*nFD), func(b *testing.B) {
			rng := rand.New(rand.NewSource(42))
			s, d, err := workload.BalancedSchema(nFD, rng)
			if err != nil {
				b.Fatal(err)
			}
			in, err := primality.NewInstanceWithDecomposition(s, d)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := in.Decide(0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1Mona times the naive MSO baseline on the rows it
// survives (the paper's MONA died from #Att = 12 on; ours exhausts its
// budget similarly — larger rows are skipped).
func BenchmarkTable1Mona(b *testing.B) {
	for _, nFD := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("att=%d", 3*nFD), func(b *testing.B) {
			rng := rand.New(rand.NewSource(42))
			s, _, err := workload.BalancedSchema(nFD, rng)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, oom, err := bench.MonaPrimality(s, 0, bench.MonaBudget); err != nil || oom {
					b.Fatalf("baseline failed: oom=%v err=%v", oom, err)
				}
			}
		})
	}
}

// ---- E2: linear data complexity of quasi-guarded evaluation ----

// chainEDB builds a τ_td-style chain database of n nodes with width-1
// bags (as in the datalog package tests).
func chainEDB(n int) *datalog.DB {
	db := datalog.NewDB()
	for i := 0; i < n; i++ {
		s := "s" + strconv.Itoa(i)
		db.AddFact("bag", s, "x"+strconv.Itoa(i), "x"+strconv.Itoa(i+1))
		if i == 0 {
			db.AddFact("leaf", s)
		} else {
			db.AddFact("child1", "s"+strconv.Itoa(i-1), s)
			db.AddFact("single", s)
		}
		db.AddFact("e", "x"+strconv.Itoa(i), "x"+strconv.Itoa(i+1))
	}
	db.AddFact("root", "s"+strconv.Itoa(n-1))
	return db
}

var chainProgram = datalog.MustParse(`
theta(V) :- bag(V, X0, X1), leaf(V), e(X0, X1).
theta(V) :- bag(V, X0, X1), child1(V1, V), theta(V1), bag(V1, Y0, Y1), e(X0, X1).
accept :- root(V), theta(V).
`)

// BenchmarkQuasiGuardedScaling measures Theorem 4.4's O(|P|·|A|) bound:
// ns/op should grow linearly with the database size.
func BenchmarkQuasiGuardedScaling(b *testing.B) {
	for _, n := range []int{250, 500, 1000, 2000} {
		b.Run(fmt.Sprintf("facts=%d", n), func(b *testing.B) {
			db := chainEDB(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := datalog.EvalQuasiGuarded(chainProgram, db, datalog.TDFuncDeps(1))
				if err != nil || !out.Has("accept") {
					b.Fatalf("eval failed: %v", err)
				}
			}
		})
	}
}

// BenchmarkSemiNaive runs the same program through the generic semi-naive
// engine for comparison.
func BenchmarkSemiNaive(b *testing.B) {
	for _, n := range []int{250, 500, 1000, 2000} {
		b.Run(fmt.Sprintf("facts=%d", n), func(b *testing.B) {
			db := chainEDB(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := datalog.Eval(chainProgram, db)
				if err != nil || !out.Has("accept") {
					b.Fatalf("eval failed: %v", err)
				}
			}
		})
	}
}

// ---- E3: generic Theorem 4.5 compiler blow-up ----

var sigColor = structure.MustSignature(structure.Predicate{Name: "c", Arity: 1})

// BenchmarkGenericCompiler compiles a depth-1 query over a unary
// signature at growing widths; the types and rules metrics grow
// exponentially in w — the paper's argument for hand-written programs.
func BenchmarkGenericCompiler(b *testing.B) {
	phi := mso.MustParse("c(x) & exists y ~c(y)")
	for _, w := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			var compiled *core.Compiled
			var err error
			for i := 0; i < b.N; i++ {
				compiled, err = core.Compile(sigColor, phi, "x", core.Options{Width: w, MaxTypes: 100000})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(compiled.UpTypes+compiled.DownTypes), "types")
			b.ReportMetric(float64(len(compiled.Program.Rules)), "rules")
		})
	}
}

// ---- E4: PRIMALITY enumeration — linear vs quadratic ----

func enumInstance(b *testing.B, nFD int) *primality.Instance {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	s, d, err := workload.BalancedSchema(nFD, rng)
	if err != nil {
		b.Fatal(err)
	}
	in, err := primality.NewInstanceWithDecomposition(s, d)
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkEnumerationLinear is the Section 5.3 algorithm: one bottom-up
// and one top-down pass.
func BenchmarkEnumerationLinear(b *testing.B) {
	for _, nFD := range []int{3, 7, 15, 31} {
		b.Run(fmt.Sprintf("att=%d", 3*nFD), func(b *testing.B) {
			in := enumInstance(b, nFD)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := in.Enumerate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEnumerationNaive re-roots and re-runs the decision program per
// attribute (quadratic data complexity).
func BenchmarkEnumerationNaive(b *testing.B) {
	for _, nFD := range []int{3, 7, 15, 31} {
		b.Run(fmt.Sprintf("att=%d", 3*nFD), func(b *testing.B) {
			in := enumInstance(b, nFD)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := in.EnumerateNaive(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E5: 3-Colorability scaling ----

func BenchmarkThreeColDP(b *testing.B) {
	for _, n := range []int{20, 40, 80, 200} {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(b *testing.B) {
				rng := rand.New(rand.NewSource(42))
				g := workload.ColorableGraph(n, 3, rng)
				in, err := threecol.NewInstance(g)
				if err != nil {
					b.Fatal(err)
				}
				prev := dp.SetMaxWorkers(workers)
				defer dp.SetMaxWorkers(prev)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := in.Decide(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkThreeColBrute: backtracking search. Note that on random
// colorable instances backtracking rarely backtracks, so this baseline
// only blows up on adversarial (near-critical) inputs; the paper's actual
// comparison is against the MSO route below.
func BenchmarkThreeColBrute(b *testing.B) {
	for _, n := range []int{20, 40, 80} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(42))
			g := workload.ColorableGraph(n, 3, rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				threecol.BruteForce(g)
			}
		})
	}
}

// BenchmarkThreeColMSO: the Section 5.1 sentence under the naive MSO
// evaluator — exponential in the vertex count regardless of instance
// difficulty (three set quantifiers), the baseline the paper compares
// against.
func BenchmarkThreeColMSO(b *testing.B) {
	sentence := mso.ThreeColorability()
	for _, n := range []int{6, 8, 10} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(42))
			g := workload.ColorableGraph(n, 2, rng)
			st := g.ToStructure()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mso.Sentence(st, sentence, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E6: MSO-to-FTA state explosion ----

// BenchmarkFTAStateExplosion compiles a family of formulas of growing
// quantifier nesting to tree automata, reporting the largest intermediate
// automaton (the explosion of [26] that the paper's approach avoids).
func BenchmarkFTAStateExplosion(b *testing.B) {
	formulas := []string{
		"forall x a(x)",
		"forall x exists y (child1(x,y) -> a(y))",
		"forall x exists y forall z (child1(x,y) -> (a(z) | b(x)))",
	}
	labels := []string{"a", "b"}
	for depth, src := range formulas {
		b.Run(fmt.Sprintf("qdepth=%d", depth+1), func(b *testing.B) {
			f := mso.MustParse(src)
			var stats *fta.CompileStats
			var err error
			for i := 0; i < b.N; i++ {
				_, stats, err = fta.Compile(f, labels)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(stats.MaxStates), "maxstates")
			b.ReportMetric(float64(stats.Determinizations), "determinizations")
		})
	}
}

// ---- E7: grounding+LTUR vs direct (lazy) DP ----

func BenchmarkGroundingVsDP(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	s, d, err := workload.BalancedSchema(7, rng)
	if err != nil {
		b.Fatal(err)
	}
	in, err := primality.NewInstanceWithDecomposition(s, d)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("dp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := in.Decide(0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ground", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := in.GroundDecide(0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- engine micro-benchmarks (datalog hot path) ----

// BenchmarkTCPath1000 is the engine regression benchmark of the
// incremental-index work: transitive closure over a 1000-vertex path
// derives ~500k facts across ~1000 semi-naive rounds, so it measures
// exactly the insert/match path (index maintenance, tuple hashing,
// parallel stratum rounds) rather than any paper-specific program.
func BenchmarkTCPath1000(b *testing.B) {
	db := bench.TCPathEDB(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := datalog.Eval(bench.TCProgram, db)
		if err != nil {
			b.Fatal(err)
		}
		if got, want := out.Count("path"), 1000*999/2; got != want {
			b.Fatalf("got %d path facts, want %d", got, want)
		}
	}
}

// BenchmarkTDGrounding is the streaming-engine acceptance workload: a
// τ_td chain evaluated two ways — the Theorem 4.4 grounding, and the
// direct streaming fixpoint. Compare B/op across sub-benchmarks: the
// grounding materializes the ground Horn program, the streaming engine
// holds O(1) rows in flight per rule.
func BenchmarkTDGrounding(b *testing.B) {
	prog, edb := bench.TDChainProgram(bench.RATypes), bench.TDChain(2000)
	check := func(out *datalog.DB, err error) {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
		if !out.Has("accept") {
			b.Fatal("accept not derived")
		}
	}
	b.Run("grounded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			check(datalog.EvalQuasiGuarded(prog, edb.Clone(), datalog.TDFuncDeps(1)))
		}
	})
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			check(datalog.Eval(prog, edb))
		}
	})
}

// BenchmarkPrimalityEval times the primality-shaped theta program (the
// Theorem 4.5 chain workload of E2) through both engine routes, so the
// generic semi-naive path and the quasi-guarded grounding path are
// tracked side by side.
func BenchmarkPrimalityEval(b *testing.B) {
	db := chainEDB(1000)
	b.Run("seminaive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := datalog.Eval(chainProgram, db)
			if err != nil || !out.Has("accept") {
				b.Fatalf("eval failed: %v", err)
			}
		}
	})
	b.Run("quasiguarded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := datalog.EvalQuasiGuarded(chainProgram, db, datalog.TDFuncDeps(1))
			if err != nil || !out.Has("accept") {
				b.Fatalf("eval failed: %v", err)
			}
		}
	})
}

// ---- supporting micro-benchmarks ----

func BenchmarkClosure(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	s, _, err := workload.BalancedSchema(31, rng)
	if err != nil {
		b.Fatal(err)
	}
	x := s.AllAttrs()
	x.Remove(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Closure(x)
	}
}

func BenchmarkDecomposeMinFill(b *testing.B) {
	for _, n := range []int{100, 500} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(42))
			g := graph.PartialKTree(n, 3, 0.3, rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := DecomposeGraph(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipeline is the end-to-end FPT health benchmark: random
// 3-colorable graph → min-fill decomposition → nice normal form →
// Figure 5 decision DP. It spans every layer the perf work touches
// (incremental eliminator, normalization, plan cache, worker pool).
func BenchmarkPipeline(b *testing.B) {
	for _, n := range []int{200, 500} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.Pipeline(n, 42); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSchemaBruteForcePrimality(b *testing.B) {
	// The exponential oracle on a mid-sized schema, for contrast with
	// BenchmarkTable1MD.
	rng := rand.New(rand.NewSource(42))
	s, _, err := workload.BalancedSchema(6, rng) // 18 attributes
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.IsPrimeBruteForce(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolver is the semiring-engine smoke benchmark: one fixed
// bounded-treewidth graph evaluated in each of the three modes of the
// generic solver (decision, counting, optimization) through the
// problem packages built on it.
func BenchmarkSolver(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	g := graph.PartialKTree(60, 3, 0.3, rng)
	b.Run("decide", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := threecol.Decide(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("count", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := threecol.CountColoringsBig(g, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("optimize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := vcover.MinVertexCover(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("optimize-wis", func(b *testing.B) {
		w := make([]int, g.N())
		for v := range w {
			w[v] = 1 + v%7
		}
		for i := 0; i < b.N; i++ {
			if _, err := wis.MaxWeight(g, w); err != nil {
				b.Fatal(err)
			}
		}
	})
}
