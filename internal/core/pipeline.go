package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bitset"
	"repro/internal/datalog"
	"repro/internal/decompose"
	"repro/internal/faultinject"
	"repro/internal/mso"
	"repro/internal/stage"
	"repro/internal/structure"
	"repro/internal/tree"
)

// Result reports an end-to-end evaluation of an MSO query over a
// structure via the compiled datalog program (Corollary 4.6).
type Result struct {
	// Selected holds the elements satisfying the unary query (nil in
	// decision mode).
	Selected *bitset.Set
	// Holds is the sentence's truth value in decision mode.
	Holds bool
	// Compiled is the program that was run.
	Compiled *Compiled
	// Width is the width of the tree decomposition used.
	Width int
	// TDNodes is the size of the normalized decomposition.
	TDNodes int
	// Trace records per-stage wall time and output sizes (and, on the
	// session path, which artifacts were served from cache).
	Trace *stage.Trace
}

// RequestWidth returns opts with the width assertion set: Run fails if
// the decomposition's normalized width differs from w. Zero is a
// legitimate width (trees of atoms), which is why the assertion lives
// in RequestedWidth rather than overloading Options.Width.
func (o Options) RequestWidth(w int) Options {
	o.RequestedWidth = &w
	return o
}

// ReductSignature returns the predicates of sig that phi mentions, in
// signature order: the signature Run and the session layer compile phi
// over. phi is a formula over that reduct τ', a tree decomposition of a
// τ-structure A also decomposes its τ'-reduct, and the τ'_td relations
// of A_td are exactly those of the reduct's τ_td structure, so the
// Theorem 4.5 program over τ' answers phi on A_td while reading none of
// the other relations. Each predicate of τ multiplies the k-types the
// program has one predicate for, so the reduct's program is the smaller
// one; a formula that mentions every predicate gets sig itself.
func ReductSignature(sig *structure.Signature, phi *mso.Formula) *structure.Signature {
	var kept []structure.Predicate
	for _, p := range sig.Predicates() {
		if InReduct(phi, p) {
			kept = append(kept, p)
		}
	}
	if len(kept) == len(sig.Predicates()) {
		return sig
	}
	return structure.MustSignature(kept...)
}

// InReduct reports whether p belongs to phi's reduct signature (see
// ReductSignature). It allocates nothing, so a cache key naming the
// reduct can test each predicate per lookup instead of building the
// Signature.
func InReduct(phi *mso.Formula, p structure.Predicate) bool {
	return phi.Mentions(p.Name)
}

// Run evaluates the MSO query phi (free element variable xVar, or a
// sentence when opts.Decision is set) over the structure by the full
// pipeline of the paper: compute a tree decomposition, normalize it to
// tuple normal form (Def. 2.3), build the τ_td structure (Section 4),
// compile φ over its reduct signature (see ReductSignature) to a
// quasi-guarded monadic datalog program (Theorem 4.5), and evaluate it
// in time O(|P|·|A_td|) (Theorem 4.4). With opts.Backend set to
// GameBackend, the nice form and the model-checking game (EvalGame)
// replace the tuple form, τ_td, compile and evaluate stages.
func Run(st *structure.Structure, phi *mso.Formula, xVar string, opts Options) (*Result, error) {
	return RunCtx(context.Background(), st, phi, xVar, opts)
}

// RunCtx is Run with cancellation support: every stage polls ctx and a
// context error comes back wrapped in a *stage.Error naming the stage
// that observed it. The Result carries a stage.Trace of the run.
//
// Resource budgets attached to ctx via stage.WithBudget (or
// stage.ApplyDeadline) are enforced at the pipeline's blowup points; a
// violation returns a stage-tagged error wrapping
// stage.ErrBudgetExceeded. Decomposition descends the degradation
// ladder (see decompose.GraphLadderCtx); the rung that produced the
// decomposition is recorded as the Decompose stat's Detail. A panic in
// any stage is recovered into a stage-tagged *stage.PanicError rather
// than crashing the caller.
func RunCtx(ctx context.Context, st *structure.Structure, phi *mso.Formula, xVar string, opts Options) (res *Result, err error) {
	if _, err := CheckBackend(opts.Backend); err != nil {
		return nil, err
	}
	defer stage.RecoverTo(stage.Decompose, &err)
	trace := &stage.Trace{}
	start := time.Now()
	if err := faultinject.Check("core.decompose"); err != nil {
		return nil, stage.Wrap(stage.Decompose, err)
	}
	d, rung, err := decompose.StructureLadderCtx(ctx, st)
	if err != nil {
		return nil, stage.Wrap(stage.Decompose, err)
	}
	trace.RecordDetail(stage.Decompose, time.Since(start), d.Len(), false, rung)
	return runWithDecomposition(ctx, st, d, phi, xVar, opts, trace)
}

// RunWithDecomposition is Run with a caller-provided (raw, valid) tree
// decomposition.
func RunWithDecomposition(st *structure.Structure, d *tree.Decomposition, phi *mso.Formula, xVar string, opts Options) (*Result, error) {
	return RunWithDecompositionCtx(context.Background(), st, d, phi, xVar, opts)
}

// RunWithDecompositionCtx is RunWithDecomposition with cancellation
// support; see RunCtx. Like RunCtx it selects the backend by
// opts.Backend.
func RunWithDecompositionCtx(ctx context.Context, st *structure.Structure, d *tree.Decomposition, phi *mso.Formula, xVar string, opts Options) (*Result, error) {
	if _, err := CheckBackend(opts.Backend); err != nil {
		return nil, err
	}
	return runWithDecomposition(ctx, st, d, phi, xVar, opts, &stage.Trace{})
}

// runWithDecomposition validates d, then takes the game route or the
// automaton route (tuple form, τ_td, compile, ground). opts.Backend has
// been checked by the caller.
func runWithDecomposition(ctx context.Context, st *structure.Structure, d *tree.Decomposition, phi *mso.Formula, xVar string, opts Options, trace *stage.Trace) (res *Result, err error) {
	// A single deferred recover covers every stage below; cur tracks the
	// stage in flight so a panic surfaces tagged with the stage it
	// escaped from.
	cur := stage.NormalizeTuple
	defer stage.RecoverAt(&cur, &err)
	if err := d.Validate(st); err != nil {
		return nil, fmt.Errorf("core: invalid decomposition: %w", err)
	}
	if opts.Backend == GameBackend {
		cur = stage.NormalizeNice
		return runGame(ctx, st, d, phi, xVar, opts, trace)
	}
	if err := faultinject.Check("core.normalize-tuple"); err != nil {
		return nil, stage.Wrap(stage.NormalizeTuple, err)
	}
	start := time.Now()
	norm, err := tree.NormalizeTupleCtx(ctx, d)
	if err != nil {
		return nil, stage.Wrap(stage.NormalizeTuple, err)
	}
	trace.Record(stage.NormalizeTuple, time.Since(start), norm.Len(), false)
	w := norm.Width()
	if opts.RequestedWidth != nil && *opts.RequestedWidth != w {
		return nil, fmt.Errorf("core: decomposition width %d does not match requested width %d", w, *opts.RequestedWidth)
	}
	opts.Width = w
	cur = stage.BuildTD
	if err := faultinject.Check("core.build-td"); err != nil {
		return nil, stage.Wrap(stage.BuildTD, err)
	}
	start = time.Now()
	td, _, err := tree.BuildTDCtx(ctx, st, norm, w)
	if err != nil {
		return nil, stage.Wrap(stage.BuildTD, err)
	}
	trace.Record(stage.BuildTD, time.Since(start), td.Size(), false)
	cur = stage.Compile
	if err := faultinject.Check("core.compile"); err != nil {
		return nil, stage.Wrap(stage.Compile, err)
	}
	start = time.Now()
	compiled, err := CompileCtx(ctx, ReductSignature(st.Sig(), phi), phi, xVar, opts)
	if err != nil {
		return nil, stage.Wrap(stage.Compile, err)
	}
	trace.Record(stage.Compile, time.Since(start), len(compiled.Program.Rules), false)
	cur = stage.Eval
	if err := faultinject.Check("core.eval"); err != nil {
		return nil, stage.Wrap(stage.Eval, err)
	}
	start = time.Now()
	edb := datalog.FromStructure(td, "")
	out, err := compiled.Grounder.Eval(ctx, edb)
	if err != nil {
		return nil, stage.Wrap(stage.Eval, err)
	}
	trace.Record(stage.Eval, time.Since(start), out.NumFacts(), false)
	return finishResult(st, compiled, opts, out, norm.Len(), w, trace)
}

// finishResult reads the goal predicate off the evaluated database and
// assembles the Result; shared by the cold path above and the session
// cached path.
func finishResult(st *structure.Structure, compiled *Compiled, opts Options, out *datalog.DB, tdNodes, w int, trace *stage.Trace) (*Result, error) {
	res := &Result{Compiled: compiled, Width: w, TDNodes: tdNodes, Trace: trace}
	if opts.Decision {
		res.Holds = out.Has(compiled.QueryPred)
		return res, nil
	}
	res.Selected = bitset.New(st.Size())
	for e := 0; e < st.Size(); e++ {
		if out.Has(compiled.QueryPred, st.Name(e)) {
			res.Selected.Add(e)
		}
	}
	return res, nil
}

// FinishResult is finishResult for the session package, which drives the
// stages itself to interpose its artifact caches.
func FinishResult(st *structure.Structure, compiled *Compiled, opts Options, out *datalog.DB, tdNodes, w int, trace *stage.Trace) (*Result, error) {
	return finishResult(st, compiled, opts, out, tdNodes, w, trace)
}
