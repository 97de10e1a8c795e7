// Package monadic is the public API of this reproduction of
// "Monadic Datalog over Finite Structures with Bounded Treewidth"
// (Gottlob, Pichler, Wei; PODS 2007).
//
// It re-exports the building blocks — finite structures, tree
// decompositions and their normal forms, the datalog engine with
// quasi-guarded linear-time evaluation (Theorem 4.4), MSO logic, and the
// generic MSO→monadic-datalog compiler (Theorem 4.5) — together with the
// paper's concrete algorithms: 3-Colorability (Fig. 5) and PRIMALITY
// decision and enumeration (Fig. 6, Sec. 5.3).
//
// Quick start (see also examples/quickstart):
//
//	s := monadic.MustParseSchema("a b -> c\nc -> b")
//	primes, err := monadic.Primes(s)       // linear-time FPT enumeration
//	ok, err := monadic.IsPrime(s, "a")     // single-attribute decision
//
// Repeated queries over one structure should go through a Session,
// which caches the decomposition, normal forms and τ_td structure and
// shares compiled programs, so only the linear-time evaluation runs
// per query:
//
//	sess := monadic.NewSession(st)
//	res, err := sess.Eval(ctx, phi, "x", monadic.CompileOptions{})
//	fmt.Println(res.Trace) // per-stage wall time and cache hits
package monadic

import (
	"context"
	"fmt"

	"repro/internal/bench"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/decompose"
	"repro/internal/domset"
	"repro/internal/graph"
	"repro/internal/mso"
	"repro/internal/normalform"
	"repro/internal/primality"
	"repro/internal/schema"
	"repro/internal/session"
	"repro/internal/stage"
	"repro/internal/structure"
	"repro/internal/threecol"
	"repro/internal/tree"
	"repro/internal/vcover"
)

// Re-exported core types.
type (
	// Structure is a finite τ-structure (Section 2.2).
	Structure = structure.Structure
	// Signature is a relational vocabulary.
	Signature = structure.Signature
	// Predicate is a predicate symbol with arity.
	Predicate = structure.Predicate
	// Graph is a simple undirected graph.
	Graph = graph.Graph
	// Schema is a relational schema (R, F) (Section 2.1).
	Schema = schema.Schema
	// Decomposition is a rooted tree decomposition.
	Decomposition = tree.Decomposition
	// NiceOptions configures nice-form normalization (Section 5).
	NiceOptions = tree.NiceOptions
	// Program is a datalog program.
	Program = datalog.Program
	// DB is a datalog fact database.
	DB = datalog.DB
	// FuncDep declares functional dependence for quasi-guard analysis
	// (Definition 4.3).
	FuncDep = datalog.FuncDep
	// Formula is an MSO formula (Section 2.3).
	Formula = mso.Formula
	// CompileOptions configures the Theorem 4.5 compiler.
	CompileOptions = core.Options
	// Compiled is a compiled monadic datalog program over τ_td.
	Compiled = core.Compiled
	// Set is a bit set of element/attribute/vertex indices.
	Set = bitset.Set
	// Session binds a structure and caches its pipeline artifacts across
	// queries (decomposition, normal forms, τ_td, compiled programs).
	Session = session.Session
	// SchemaSession is the analogous cache for PRIMALITY over a schema.
	SchemaSession = session.SchemaSession
	// SessionStats counts the expensive operations a session performed.
	SessionStats = session.Stats
	// ProgramCache memoizes MSO compilations per (formula, width, options).
	ProgramCache = session.ProgramCache
	// StageError tags pipeline errors (incl. context cancellation) with
	// the stage that observed them; recover it with errors.As.
	StageError = session.StageError
	// Trace records per-stage wall time, output size and cache hits.
	Trace = session.Trace
)

// Sessions.

// NewSession creates a session bound to st, sharing the package-wide
// program cache.
func NewSession(st *Structure) *Session { return session.New(st) }

// NewSessionWithCache creates a session with its own program cache.
func NewSessionWithCache(st *Structure, pc *ProgramCache) *Session {
	return session.NewWithCache(st, pc)
}

// NewProgramCache returns an empty compiled-program cache.
func NewProgramCache() *ProgramCache { return session.NewProgramCache() }

// SessionFor returns the registry session for st (one per structure,
// bounded FIFO), so repeated RunMSO calls on the same structure reuse
// artifacts.
func SessionFor(st *Structure) *Session { return session.For(st) }

// NewSchemaSession creates a session bound to a schema for PRIMALITY.
func NewSchemaSession(s *Schema) *SchemaSession { return session.NewSchemaSession(s) }

// SchemaSessionFor returns the registry session for s.
func SchemaSessionFor(s *Schema) *SchemaSession { return session.ForSchema(s) }

// Parsing.

// ParseStructure reads a τ-structure from the fact-list format; sig may
// be nil to infer the signature.
func ParseStructure(src string, sig *Signature) (*Structure, error) {
	return structure.Parse(src, sig)
}

// ParseSchema reads a relational schema ("a b -> c" lines).
func ParseSchema(src string) (*Schema, error) { return schema.Parse(src) }

// MustParseSchema is ParseSchema that panics on error.
func MustParseSchema(src string) *Schema { return schema.MustParse(src) }

// ParseProgram reads a datalog program.
func ParseProgram(src string) (*Program, error) { return datalog.Parse(src) }

// ParseMSO reads an MSO formula.
func ParseMSO(src string) (*Formula, error) { return mso.Parse(src) }

// Tree decompositions.

// Decompose computes a tree decomposition of a structure's primal graph
// with the min-fill heuristic.
func Decompose(st *Structure) (*Decomposition, error) {
	return decompose.Structure(st, decompose.MinFill)
}

// DecomposeCtx is Decompose with cancellation.
func DecomposeCtx(ctx context.Context, st *Structure) (*Decomposition, error) {
	return decompose.StructureCtx(ctx, st, decompose.MinFill)
}

// DecomposeGraph computes a tree decomposition of a graph.
func DecomposeGraph(g *Graph) (*Decomposition, error) {
	return decompose.Graph(g, decompose.MinFill)
}

// DecomposeGraphCtx is DecomposeGraph with cancellation.
func DecomposeGraphCtx(ctx context.Context, g *Graph) (*Decomposition, error) {
	return decompose.GraphCtx(ctx, g, decompose.MinFill)
}

// Treewidth computes the exact treewidth of a small graph.
func Treewidth(g *Graph) (int, error) { return decompose.Treewidth(g) }

// TreewidthPreprocessed computes the exact treewidth after simplicial
// reductions, handling much larger bounded-treewidth inputs.
func TreewidthPreprocessed(g *Graph) (int, error) { return decompose.TreewidthPreprocessed(g) }

// NormalizeTuple converts to the Definition 2.3 tuple normal form.
func NormalizeTuple(d *Decomposition) (*Decomposition, error) {
	return tree.NormalizeTuple(d)
}

// NormalizeNice converts to the Section 5 nice normal form.
func NormalizeNice(d *Decomposition, opts NiceOptions) (*Decomposition, error) {
	return tree.NormalizeNice(d, opts)
}

// BuildTD constructs the τ_td structure of Section 4 from a structure and
// a tuple-normal-form decomposition of width w.
func BuildTD(st *Structure, d *Decomposition, w int) (*Structure, []int, error) {
	return tree.BuildTD(st, d, w)
}

// Datalog evaluation.

// EvalDatalog evaluates a program by stratified semi-naive iteration.
func EvalDatalog(p *Program, edb *DB) (*DB, error) { return datalog.Eval(p, edb) }

// EvalDatalogCtx is EvalDatalog with cancellation, polled inside each
// stratum.
func EvalDatalogCtx(ctx context.Context, p *Program, edb *DB) (*DB, error) {
	return datalog.EvalCtx(ctx, p, edb)
}

// EvalQuasiGuarded evaluates a quasi-guarded semipositive program in time
// O(|P|·|A|) by grounding and unit resolution (Theorem 4.4).
func EvalQuasiGuarded(p *Program, edb *DB, fds []FuncDep) (*DB, error) {
	return datalog.EvalQuasiGuarded(p, edb, fds)
}

// EvalQuasiGuardedCtx is EvalQuasiGuarded with cancellation.
func EvalQuasiGuardedCtx(ctx context.Context, p *Program, edb *DB, fds []FuncDep) (*DB, error) {
	return datalog.EvalQuasiGuardedCtx(ctx, p, edb, fds)
}

// TDFuncDeps returns the functional dependencies of the τ_td predicates.
func TDFuncDeps(w int) []FuncDep { return datalog.TDFuncDeps(w) }

// DBFromStructure loads a structure as a datalog EDB.
func DBFromStructure(st *Structure) *DB { return datalog.FromStructure(st, "") }

// WithWorkers returns a context whose evaluations use at most n
// goroutines each: the datalog engine's parallel stratum rounds and the
// decomposition DP scheduler (1 = serial; without it, GOMAXPROCS).
// Results are identical at every count.
func WithWorkers(ctx context.Context, n int) context.Context { return stage.WithWorkers(ctx, n) }

// MSO and the generic compiler.

// EvalMSO decides A ⊨ φ for a sentence by the naive evaluator (the
// exponential baseline; budget may be nil).
func EvalMSO(st *Structure, f *Formula) (bool, error) {
	return mso.Sentence(st, f, nil)
}

// EvalMSOQuery decides (A, elem) ⊨ φ(freeVar) for one element by the
// naive evaluator.
func EvalMSOQuery(st *Structure, f *Formula, freeVar string, elem int) (bool, error) {
	return mso.Eval(st, f, mso.Interp{Elem: map[string]int{freeVar: elem}}, nil)
}

// CompileMSO compiles an MSO unary query (or sentence, with
// opts.Decision) to a quasi-guarded monadic datalog program over τ_td
// (Theorem 4.5).
func CompileMSO(sig *Signature, f *Formula, freeVar string, opts CompileOptions) (*Compiled, error) {
	return core.Compile(sig, f, freeVar, opts)
}

// CompileMSOCtx is CompileMSO with cancellation.
func CompileMSOCtx(ctx context.Context, sig *Signature, f *Formula, freeVar string, opts CompileOptions) (*Compiled, error) {
	return core.CompileCtx(ctx, sig, f, freeVar, opts)
}

// RunMSO evaluates an MSO query over a structure end-to-end via the
// compiled datalog program (Corollary 4.6). It goes through the
// structure's registry session, so repeated queries over the same
// structure reuse the decomposition, normal forms and τ_td artifacts.
func RunMSO(st *Structure, f *Formula, freeVar string, opts CompileOptions) (*core.Result, error) {
	return session.For(st).Eval(context.Background(), f, freeVar, opts)
}

// RunMSOCtx is RunMSO with cancellation: ctx is checked in every
// pipeline stage, and cancellation comes back as a *StageError wrapping
// ctx.Err().
func RunMSOCtx(ctx context.Context, st *Structure, f *Formula, freeVar string, opts CompileOptions) (*core.Result, error) {
	return session.For(st).Eval(ctx, f, freeVar, opts)
}

// PrimalityMSO returns the unary MSO primality query of Example 2.6.
func PrimalityMSO() *Formula { return mso.Primality() }

// ThreeColorabilityMSO returns the MSO sentence of Section 5.1.
func ThreeColorabilityMSO() *Formula { return mso.ThreeColorability() }

// Problem solvers.

// IsPrime decides whether the named attribute is prime (Fig. 6 DP). It
// goes through the schema's registry session, so repeated decisions on
// one schema reuse the decomposed instance.
func IsPrime(s *Schema, attr string) (bool, error) {
	return session.ForSchema(s).IsPrime(context.Background(), attr)
}

// IsPrimeCtx is IsPrime with cancellation.
func IsPrimeCtx(ctx context.Context, s *Schema, attr string) (bool, error) {
	return session.ForSchema(s).IsPrime(ctx, attr)
}

// Primes enumerates all prime attributes in linear time (Section 5.3),
// memoized per schema through the registry session.
func Primes(s *Schema) (*Set, error) {
	return session.ForSchema(s).Primes(context.Background())
}

// PrimesCtx is Primes with cancellation.
func PrimesCtx(ctx context.Context, s *Schema) (*Set, error) {
	return session.ForSchema(s).Primes(ctx)
}

// PrimalityInstance exposes the full PRIMALITY API (decision,
// enumeration, naive baseline, grounding, relevance, key witnesses).
func PrimalityInstance(s *Schema) (*primality.Instance, error) {
	return primality.NewInstance(s)
}

// KeyFor returns a key (minimal superkey) containing the named attribute,
// extracted from the Figure 6 DP's accepting derivation; ok is false when
// the attribute is not prime.
func KeyFor(s *Schema, attr string) (key []int, ok bool, err error) {
	a, found := s.Attr(attr)
	if !found {
		return nil, false, fmt.Errorf("monadic: unknown attribute %s", attr)
	}
	in, err := primality.NewInstance(s)
	if err != nil {
		return nil, false, err
	}
	return in.KeyWitness(a)
}

// ThreeColorable decides 3-colorability of a graph (Fig. 5 DP).
func ThreeColorable(g *Graph) (bool, error) { return threecol.Decide(g) }

// ThreeColorableCtx is ThreeColorable with cancellation.
func ThreeColorableCtx(ctx context.Context, g *Graph) (bool, error) {
	in, err := threecol.NewInstanceCtx(ctx, g)
	if err != nil {
		return false, err
	}
	return in.DecideCtx(ctx)
}

// ThreeColoring returns a proper 3-coloring if one exists.
func ThreeColoring(g *Graph) ([]int, bool, error) {
	in, err := threecol.NewInstance(g)
	if err != nil {
		return nil, false, err
	}
	return in.Coloring()
}

// Extensions (Sections 6–7: optimizations, flexibility, abduction).

// QueryWithMagic evaluates a datalog query goal(args...) after the
// magic-sets rewriting (the "top-down guidance in the style of magic
// sets" of Section 6), deriving only facts relevant to the query.
func QueryWithMagic(p *Program, edb *DB, goal string, args []datalog.Term) ([][]string, error) {
	return datalog.QueryWithMagic(p, edb, goal, args)
}

// KColorable decides proper k-colorability over a tree decomposition
// (the Figure 5 program with a widened solve predicate).
func KColorable(g *Graph, k int) (bool, error) { return threecol.KColorable(g, k) }

// CountColorings counts proper k-colorings by the weighted DP.
func CountColorings(g *Graph, k int) (uint64, error) { return threecol.CountColorings(g, k) }

// ChromaticNumber returns the least k admitting a proper coloring.
func ChromaticNumber(g *Graph) (int, error) { return threecol.ChromaticNumber(g) }

// Check3NF tests third normal form using the FPT primality enumeration —
// the application motivating PRIMALITY in the paper's introduction.
func Check3NF(s *Schema) (*normalform.Report, error) { return normalform.Check3NF(s) }

// CheckBCNF tests Boyce–Codd normal form.
func CheckBCNF(s *Schema) *normalform.Report { return normalform.CheckBCNF(s) }

// MinVertexCover computes a minimum vertex cover size by the
// cost-optimizing DP over a tree decomposition — a further FPT problem on
// the framework (Section 7's outlook).
func MinVertexCover(g *Graph) (int, error) { return vcover.MinVertexCover(g) }

// MaxIndependentSet computes the maximum independent set size.
func MaxIndependentSet(g *Graph) (int, error) { return vcover.MaxIndependentSet(g) }

// MinDominatingSet computes a minimum dominating set size by the
// three-valued-state DP over a tree decomposition.
func MinDominatingSet(g *Graph) (int, error) { return domset.MinDominatingSet(g) }

// Relevant decides the abduction relevance problem of Section 7 for
// definite Horn theories encoded as schemas: does hypothesis attr belong
// to a minimal explanation of the manifestations man from hypotheses hyp?
func Relevant(s *Schema, hyp, man *Set, attr string) (bool, error) {
	a, ok := s.Attr(attr)
	if !ok {
		return false, fmt.Errorf("monadic: unknown attribute %s", attr)
	}
	in, err := primality.NewInstance(s)
	if err != nil {
		return false, err
	}
	return in.DecideRelevant(hyp, man, a)
}

// Experiments.

// Table1 regenerates the paper's Table 1.
func Table1(opts bench.Table1Opts) ([]bench.Table1Row, error) { return bench.Table1(opts) }

// FormatTable1 renders Table 1 rows in the paper's layout.
func FormatTable1(rows []bench.Table1Row) string { return bench.FormatTable1(rows) }
