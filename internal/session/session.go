// Package session provides the staged solver pipeline of Corollary 4.6
// as a reusable, cancellable, instrumented service. A Session binds one
// structure and memoizes the per-structure artifacts — tree
// decomposition, tuple normal form (Def. 2.3), nice normal form, τ_td
// structure (Section 4) and its datalog EDB — keyed by a content
// fingerprint, while compiled MSO programs are cached per (formula,
// width, options) in a ProgramCache shared across sessions, each
// compiled over the predicates its formula mentions. Evaluating
// k queries over one structure therefore pays for decomposition,
// normalization and τ_td construction once, and one query over k
// structures compiles once. Evaluation is deterministic, so each
// session additionally memoizes query results per (formula, options):
// repeating a query on an unchanged structure is a pure cache hit,
// invalidated by the same fingerprint mechanism as the artifacts.
//
// Concurrency: all methods are safe for concurrent use, and every memo
// table is an internal/cache.Cache, whose lock is held only for lookups
// and inserts — never across artifact construction, compilation or
// evaluation. Expensive work runs under per-key single-flight:
// concurrent requests for the same missing artifact, compiled program
// or evaluation result share one in-flight computation, while requests
// answerable from cache complete immediately even when a cold
// computation is running on the same session. If an in-flight leader
// fails, waiting requests with live contexts retry (resuming after any
// stages the failed run completed) rather than inheriting the leader's
// error.
//
// Every stage accepts a context.Context; cancellation and deadline
// errors come back wrapped in a *stage.Error (aliased here as
// StageError) naming the stage that observed them, and each evaluation
// carries a stage.Trace of per-stage wall time, output size and cache
// hits.
//
// Mutation: Session.Mutate edits the bound structure under the
// session's write lock (serialized against every in-flight build and
// evaluation) and keeps the cached decompositions while they still
// decompose the edited structure, after which τ_td and the query
// results are recomputed; an edit they no longer cover invalidates
// wholesale (see mutate.go). Editing a session-bound
// structure directly still works but is detected by fingerprint and
// always pays the wholesale invalidation, and racing such edits against
// concurrent evaluations is the caller's responsibility.
package session

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/decompose"
	"repro/internal/faultinject"
	"repro/internal/mso"
	"repro/internal/stage"
	"repro/internal/structure"
	"repro/internal/tree"
)

// StageError is the stage-tagged error taxonomy of the pipeline; see
// stage.Error. Use errors.As to recover it and errors.Is to test for
// context.Canceled / context.DeadlineExceeded underneath.
type StageError = stage.Error

// Trace records per-stage wall time, output size and cache hits for
// one evaluation; see stage.Trace.
type Trace = stage.Trace

// Stats counts the expensive operations a session has performed. The
// cache guarantees are expressed in these counters: evaluating any
// number of queries over an unchanged structure keeps Decompositions,
// TupleNormalizations and TDBuilds at 1 (the latter two at 0 while only
// the game backend evaluates, as it reads neither).
type Stats struct {
	// Decompositions counts min-fill tree decompositions computed.
	Decompositions int
	// TupleNormalizations counts tuple-normal-form constructions.
	TupleNormalizations int
	// NiceNormalizations counts nice-normal-form constructions.
	NiceNormalizations int
	// TDBuilds counts τ_td structure constructions (incl. EDB load).
	TDBuilds int
	// Compiles counts MSO compilations this session triggered;
	// CompileCacheHits counts the ones served from the program cache.
	Compiles, CompileCacheHits int
	// Evals counts evaluations (one per Eval call that reached the
	// evaluation stage, regardless of backend); ResultCacheHits counts
	// Eval calls answered from the per-session result cache — or from
	// another request's in-flight evaluation of the same key — instead.
	Evals, ResultCacheHits int
	// EvalsByBackend splits Evals by the backend that performed them
	// (core.Options.Backend; "automaton" for the default pipeline). Nil
	// until the first evaluation completes.
	EvalsByBackend map[string]int
	// SolverSolves counts semiring-solver runs performed by the Solve*
	// helpers; SolverCacheHits counts the Solve* calls answered from the
	// per-session solver cache instead.
	SolverSolves, SolverCacheHits int
	// Invalidations counts wholesale artifact discards: fingerprint
	// mismatches from direct (non-Mutate) structure edits, and Mutate
	// calls that could not be absorbed incrementally.
	Invalidations int
	// DeltasApplied counts Mutate calls absorbed incrementally: the
	// cached decompositions still covered the edited structure and were
	// kept.
	DeltasApplied int
}

// Session binds a structure and caches its pipeline artifacts. All
// methods are safe for concurrent use; the mutex guards only the
// fingerprint and counters, and construction/evaluation run outside it
// under per-key single-flight (see the package comment).
type Session struct {
	st    *structure.Structure
	progs *ProgramCache

	// stMu serializes structure access: builds and evaluations read the
	// bound structure under RLock, and Mutate edits it (and re-syncs the
	// caches) under Lock. Lock order is stMu, then mu, then a cache's
	// lock: nothing acquires stMu while holding mu, nor mu while holding
	// a cache's lock.
	stMu sync.RWMutex

	mu sync.Mutex
	// fp is the fingerprint of the structure at revision fpRev; hashed
	// reports that fp was ever computed. An unmoved revision means an
	// unchanged structure, so revalidation skips the hash.
	fp     uint64
	fpRev  uint64
	hashed bool
	stats  Stats

	// Every cache below files an entry under the fingerprint of the
	// structure it was computed from, so a stored value is right for its
	// key whenever it lands and a request never shares a computation
	// begun before an edit. raw holds the ladder decomposition, tuple
	// its tuple normal form, td the τ_td structure with its EDB, and nice
	// the nice normal form (built on demand). Evaluation is
	// deterministic, so an unchanged structure makes a repeat of the
	// same (formula, options) or (problem, mode) a pure cache hit:
	// results holds the evaluated queries and solved the semiring-solver
	// outcomes (see SolveDecide / SolveCount / SolveOptimize): a bool, a
	// count or a *solver.Optimum, never a solver table.
	raw     *cache.Cache[uint64, decomposition]
	tuple   *cache.Cache[uint64, *tree.Decomposition]
	td      *cache.Cache[uint64, tauTD]
	nice    *cache.Cache[uint64, *tree.Decomposition]
	results *cache.Cache[resultKey, *resultEntry]
	solved  *cache.Cache[solverKey, any]
}

// Per-session cache caps. Each per-structure stage has one current
// entry; the second slot keeps a build that an edit overtook from
// displacing it when it lands.
const (
	stageCap  = 2
	resultCap = 256
	solverCap = 64
)

// decomposition is a raw decomposition with the degradation-ladder rung
// that produced it.
type decomposition struct {
	d    *tree.Decomposition
	rung string
}

// tauTD is the τ_td structure of Section 4 with its datalog EDB.
type tauTD struct {
	td  *structure.Structure
	edb *datalog.DB
}

// resultKey files a query result under the fingerprint of the
// artifacts it was evaluated on.
type resultKey struct {
	fp uint64
	progKey
}

type resultEntry struct {
	res      *core.Result
	evalSize int // NumFacts of the evaluation output, for trace replay
}

// testHookEvalStart, when non-nil, runs at the start of every uncached
// evaluation (after this request became the key's single-flight leader,
// outside the session mutex). The concurrency regression tests use it
// to hold a cold evaluation open while asserting that warm cache hits
// on the same session still complete.
var testHookEvalStart func()

// New creates a session bound to st, using the shared default program
// cache.
func New(st *structure.Structure) *Session {
	return NewWithCache(st, defaultProgramCache)
}

// NewWithCache creates a session with a caller-provided program cache
// (useful to isolate cache statistics in tests).
func NewWithCache(st *structure.Structure, pc *ProgramCache) *Session {
	if pc == nil {
		pc = defaultProgramCache
	}
	return &Session{
		st:      st,
		progs:   pc,
		raw:     cache.New[uint64, decomposition](stageCap),
		tuple:   cache.New[uint64, *tree.Decomposition](stageCap),
		td:      cache.New[uint64, tauTD](stageCap),
		nice:    cache.New[uint64, *tree.Decomposition](stageCap),
		results: cache.New[resultKey, *resultEntry](resultCap),
		solved:  cache.New[solverKey, any](solverCap),
	}
}

// Structure returns the bound structure.
func (s *Session) Structure() *structure.Structure { return s.st }

// Stats returns a snapshot of the session's operation counters.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	if s.stats.EvalsByBackend != nil {
		st.EvalsByBackend = make(map[string]int, len(s.stats.EvalsByBackend))
		for k, v := range s.stats.EvalsByBackend {
			st.EvalsByBackend[k] = v
		}
	}
	s.mu.Unlock()
	rs, ss := s.results.Stats(), s.solved.Stats()
	st.Evals, st.ResultCacheHits = rs.Misses, rs.Hits
	st.SolverSolves, st.SolverCacheHits = ss.Misses, ss.Hits
	st.Decompositions = s.raw.Stats().Misses
	st.TupleNormalizations = s.tuple.Stats().Misses
	st.TDBuilds = s.td.Stats().Misses
	st.NiceNormalizations = s.nice.Stats().Misses
	return st
}

// ProgramCacheStats reports the hit/miss counters of the session's
// program cache (shared across sessions unless NewWithCache was used).
func (s *Session) ProgramCacheStats() (hits, misses int) { return s.progs.Stats() }

// invalidateLocked drops every cached entry and returns how many query
// results went with them.
func (s *Session) invalidateLocked() int {
	s.raw.Clear()
	s.tuple.Clear()
	s.td.Clear()
	s.nice.Clear()
	s.solved.Clear()
	return s.results.Clear()
}

// ShedResults drops the per-session result and solver caches — the
// evaluated core.Results and the solver outcomes, which are scalars —
// while keeping the structural artifacts (decompositions, τ_td, EDB).
// Those are expensive to rebuild and, since the solver cache stopped
// holding tables, most of a session's bytes. It returns how many cached
// entries were released. The server's memory watchdog calls it as the
// first shedding tier; subsequent evaluations recompute and re-populate.
// In-flight evaluations are unaffected (their results re-enter the
// cache when they complete).
func (s *Session) ShedResults() int {
	return s.results.Clear() + s.solved.Clear()
}

// revalidateLocked brings s.fp up to date with the structure, hashing
// it only when its revision moved since the last hash. A direct
// (non-Mutate) edit found while anything is cached counts as an
// invalidation and drops the caches: their entries stay right for
// their keys, but for a structure that is gone.
func (s *Session) revalidateLocked() {
	if s.hashed && s.st.Rev() == s.fpRev {
		return
	}
	fp := Fingerprint(s.st)
	if fp != s.fp && (s.raw.Len() > 0 || s.tuple.Len() > 0 || s.td.Len() > 0 ||
		s.nice.Len() > 0 || s.results.Len() > 0 || s.solved.Len() > 0) {
		s.invalidateLocked()
		s.stats.Invalidations++
	}
	s.setFPLocked(fp)
}

// setFPLocked records fp as the fingerprint of the structure at its
// current revision.
func (s *Session) setFPLocked(fp uint64) {
	s.fp, s.fpRev, s.hashed = fp, s.st.Rev(), true
}

// ErrMoved reports that the bound structure no longer has the
// fingerprint a context was pinned to (see Pin).
var ErrMoved = errors.New("session: structure edited away from the pinned fingerprint")

type pinKey struct{}

// Pin returns a context under which a session answers only for the
// structure with fingerprint fp: once the bound structure no longer has
// it, Eval and the Solve* helpers fail with ErrMoved instead of
// answering for the edited structure. A caller that chose the session
// by fingerprint pins it, so that a concurrent Mutate cannot make it
// answer for another structure.
func Pin(ctx context.Context, fp uint64) context.Context {
	return context.WithValue(ctx, pinKey{}, fp)
}

// artifacts holds the front-end products for the structure with
// fingerprint fp. Whatever is computed from them is cached under fp.
type artifacts struct {
	fp    uint64
	raw   *tree.Decomposition
	tuple *tree.Decomposition
	width int
	tauTD
}

// frontEnd returns the front-end artifacts of the bound structure:
// with full set the decomposition, tuple form and τ_td, otherwise the
// decomposition alone. Each stage is answered from its cache or built
// under the cache's single-flight, so a failed build leaves the
// completed stages behind and a retry resumes after them. A stage
// builds from the structure only while it still has the fingerprint
// read at the start (see readAt); an edit landing in between makes
// frontEnd start over from the edited structure, dropping the trace
// entries of the abandoned attempt.
func (s *Session) frontEnd(ctx context.Context, trace *stage.Trace, full bool) (artifacts, error) {
	for n := len(trace.Stats); ; trace.Stats = trace.Stats[:n] {
		if err := ctx.Err(); err != nil {
			return artifacts{}, stage.Wrap(stage.Decompose, err)
		}
		s.mu.Lock()
		s.revalidateLocked()
		fp := s.fp
		s.mu.Unlock()
		if pin, ok := ctx.Value(pinKey{}).(uint64); ok && pin != fp {
			return artifacts{}, ErrMoved
		}
		art, err := s.buildFrontEnd(ctx, trace, fp, full)
		if _, edited := err.(editedError); !edited {
			return art, err
		}
	}
}

// buildFrontEnd is one attempt at frontEnd, for the structure with
// fingerprint fp.
func (s *Session) buildFrontEnd(ctx context.Context, trace *stage.Trace, fp uint64, full bool) (artifacts, error) {
	raw, err := buildStage(ctx, s, s.raw, fp, stage.Decompose, "session.decompose", trace, func() (decomposition, error) {
		d, rung, err := decompose.StructureLadderCtx(ctx, s.st)
		return decomposition{d, rung}, err
	}, func(raw decomposition) (int, string) { return raw.d.Len(), raw.rung })
	art := artifacts{fp: fp, raw: raw.d}
	if err != nil || !full {
		return art, err
	}
	art.tuple, err = buildStage(ctx, s, s.tuple, fp, stage.NormalizeTuple, "session.normalize-tuple", trace, func() (*tree.Decomposition, error) {
		if err := raw.d.Validate(s.st); err != nil {
			return nil, fmt.Errorf("session: invalid decomposition: %w", err)
		}
		return tree.NormalizeTupleCtx(ctx, raw.d)
	}, func(d *tree.Decomposition) (int, string) { return d.Len(), "" })
	if err != nil {
		return art, err
	}
	art.width = art.tuple.Width()
	art.tauTD, err = buildStage(ctx, s, s.td, fp, stage.BuildTD, "session.build-td", trace, func() (tauTD, error) {
		td, _, err := tree.BuildTDCtx(ctx, s.st, art.tuple, art.width)
		if err != nil {
			return tauTD{}, err
		}
		return tauTD{td, datalog.FromStructure(td, "")}, nil
	}, func(t tauTD) (int, string) { return t.td.Size(), "" })
	return art, err
}

// buildStage returns c's entry under fp, running build on a miss under
// c's single-flight and under readAt, after the fault point named point.
// An error, panic or injected fault of the build, and the context error
// of a request that stopped waiting on another's build, come back
// tagged with st. The stage is recorded in trace, a hit with zero wall
// time; describe gives an entry's size and detail.
func buildStage[V any](ctx context.Context, s *Session, c *cache.Cache[uint64, V], fp uint64, st stage.Stage, point string, trace *stage.Trace, build func() (V, error), describe func(V) (int, string)) (V, error) {
	var wall time.Duration
	v, hit, err := c.Do(ctx, fp, func() (V, error) {
		return readAt(s, fp, func() (v V, err error) {
			defer stage.RecoverTo(st, &err)
			if err := faultinject.Check(point); err != nil {
				return v, stage.Wrap(st, err)
			}
			start := timeNow()
			v, err = build()
			wall = timeNow().Sub(start)
			return v, stage.Wrap(st, err)
		})
	})
	if err != nil {
		return v, waited(st, err)
	}
	size, detail := describe(v)
	trace.RecordDetail(st, wall, size, hit, detail)
	return v, nil
}

// readAt runs read under the structure read lock if the structure still
// has fingerprint fp, and returns editedError otherwise: whatever read
// computes from the structure is then for the one fp names.
func readAt[V any](s *Session, fp uint64, read func() (V, error)) (V, error) {
	s.stMu.RLock()
	defer s.stMu.RUnlock()
	s.mu.Lock()
	edited := s.fp != fp
	s.mu.Unlock()
	if edited {
		var zero V
		return zero, editedError{}
	}
	return read()
}

// Warm builds (or revalidates) every front-end artifact and returns the
// stage trace of doing so — cached stages appear with CacheHit set.
// CLIs use it to surface per-stage timings without running a query.
func (s *Session) Warm(ctx context.Context) (*Trace, error) {
	trace := &stage.Trace{}
	_, err := s.frontEnd(ctx, trace, true)
	return trace, err
}

// Decomposition returns the session's cached raw tree decomposition
// (computed on first use by the degradation ladder; see
// decompose.GraphLadderCtx).
func (s *Session) Decomposition(ctx context.Context) (*tree.Decomposition, error) {
	art, err := s.frontEnd(ctx, &stage.Trace{}, false)
	return art.raw, err
}

// TupleForm returns the cached tuple normal form (Def. 2.3) and its
// width, normalizing on first use.
func (s *Session) TupleForm(ctx context.Context) (*tree.Decomposition, int, error) {
	art, err := s.frontEnd(ctx, &stage.Trace{}, true)
	if err != nil {
		return nil, 0, err
	}
	return art.tuple, art.width, nil
}

// NiceForm returns the cached nice normal form (Section 5), normalizing
// the raw decomposition on first use. Concurrent callers share one
// in-flight normalization.
func (s *Session) NiceForm(ctx context.Context) (*tree.Decomposition, error) {
	nice, _, err := s.niceForm(ctx)
	return nice, err
}

// niceForm is NiceForm, also returning the fingerprint of the structure
// the nice form was built for.
func (s *Session) niceForm(ctx context.Context) (*tree.Decomposition, uint64, error) {
	art, err := s.frontEnd(ctx, &stage.Trace{}, false)
	if err != nil {
		return nil, 0, err
	}
	nice, _, err := s.nice.Do(ctx, art.fp, func() (*tree.Decomposition, error) {
		return s.normalizeNice(ctx, art.raw)
	})
	return nice, art.fp, waited(stage.NormalizeNice, err)
}

func (s *Session) normalizeNice(ctx context.Context, raw *tree.Decomposition) (nice *tree.Decomposition, err error) {
	defer stage.RecoverTo(stage.NormalizeNice, &err)
	return tree.NormalizeNiceCtx(ctx, raw, tree.NiceOptions{})
}

// Width returns the normalized decomposition width.
func (s *Session) Width(ctx context.Context) (int, error) {
	_, w, err := s.TupleForm(ctx)
	return w, err
}

// Eval runs the MSO query phi (free element variable xVar, or a
// sentence when opts.Decision is set) over the session's structure:
// cached artifacts feed a (possibly cached) compiled program, and only
// the quasi-guarded evaluation of Theorem 4.4 runs per call. The
// Result's Trace shows which stages were served from cache. Concurrent
// Eval calls for the same (formula, options) share one evaluation;
// calls answerable from the result cache complete without waiting on
// any in-flight work.
func (s *Session) Eval(ctx context.Context, phi *mso.Formula, xVar string, opts core.Options) (res *core.Result, err error) {
	defer stage.RecoverTo(stage.Compile, &err)
	if _, err := core.CheckBackend(opts.Backend); err != nil {
		return nil, stage.Wrap(stage.Compile, err)
	}
	for {
		res, err = s.eval(ctx, phi, xVar, opts)
		if _, edited := err.(editedError); !edited {
			return res, err
		}
	}
}

// editedError reports that an edit landed between reading the artifacts
// and evaluating on them; Eval then starts over from the edited ones.
type editedError struct{}

func (editedError) Error() string { return "session: structure edited during evaluation" }

// eval is one attempt at Eval.
func (s *Session) eval(ctx context.Context, phi *mso.Formula, xVar string, opts core.Options) (*core.Result, error) {
	trace := &stage.Trace{}
	if opts.Backend == core.GameBackend {
		// The game evaluates lazily on the cached nice decomposition: no
		// tuple form, τ_td, datalog compilation or program cache.
		return s.evalGame(ctx, phi, xVar, opts, trace)
	}
	art, err := s.frontEnd(ctx, trace, true)
	if err != nil {
		return nil, err
	}
	if opts.RequestedWidth != nil && *opts.RequestedWidth != art.width {
		return nil, fmt.Errorf("session: decomposition width %d does not match requested width %d", art.width, *opts.RequestedWidth)
	}
	opts.Width = art.width
	if err := faultinject.Check("session.compile"); err != nil {
		return nil, stage.Wrap(stage.Compile, err)
	}
	start := timeNow()
	key := resultKey{fp: art.fp, progKey: keyFor(s.st.Sig(), phi, xVar, opts)}
	compiled, hit, err := s.progs.get(ctx, key.progKey, s.st.Sig(), phi, xVar, opts)
	if err != nil {
		return nil, stage.Wrap(stage.Compile, err)
	}
	trace.Record(stage.Compile, timeNow().Sub(start), len(compiled.Program.Rules), hit)
	s.mu.Lock()
	s.stats.Compiles++
	if hit {
		s.stats.CompileCacheHits++
	}
	s.mu.Unlock()
	return s.evalShared(ctx, key, core.DefaultBackend, trace, func() (*resultEntry, error) {
		return s.runEval(ctx, compiled, art, opts, trace)
	})
}

// evalShared answers key from the result cache, or runs eval under
// single-flight and files its result under key. eval runs under the
// structure read lock, and only if the structure still has the
// fingerprint key was made with; otherwise evalShared returns editedError.
// backend names the evaluator for Stats.EvalsByBackend.
func (s *Session) evalShared(ctx context.Context, key resultKey, backend string, trace *stage.Trace, eval func() (*resultEntry, error)) (*core.Result, error) {
	e, hit, err := s.results.Do(ctx, key, func() (*resultEntry, error) {
		return readAt(s, key.fp, eval)
	})
	if err != nil {
		return nil, waited(stage.Eval, err)
	}
	if hit {
		trace.Record(stage.Eval, 0, e.evalSize, true)
	} else {
		s.mu.Lock()
		if s.stats.EvalsByBackend == nil {
			s.stats.EvalsByBackend = map[string]int{}
		}
		s.stats.EvalsByBackend[backend]++
		s.mu.Unlock()
	}
	return cachedResult(e.res, trace), nil
}

// waited tags the bare context error Cache.Do returns to a caller that
// stopped waiting on another request's computation with the stage it
// waited in (stage.Wrap leaves an already tagged error alone). Other
// errors pass through untouched.
func waited(st stage.Stage, err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return stage.Wrap(st, err)
	}
	return err
}

// evalGame is Eval's path for the game backend: it feeds the session's
// cached nice decomposition, built from the raw decomposition alone, to
// core.EvalGame through the same result cache as the default path.
// opts.RequestedWidth is checked against the nice form's width before
// the result cache is consulted, since result-cache keys do not include
// it. They do include the backend name (see keyFor), so the same
// formula evaluated under different backends occupies distinct entries
// and a backend switch can never serve another backend's result.
func (s *Session) evalGame(ctx context.Context, phi *mso.Formula, xVar string, opts core.Options, trace *stage.Trace) (*core.Result, error) {
	nice, fp, err := s.niceForm(ctx)
	if err != nil {
		return nil, err
	}
	if opts.RequestedWidth != nil && *opts.RequestedWidth != nice.Width() {
		return nil, fmt.Errorf("session: decomposition width %d does not match requested width %d", nice.Width(), *opts.RequestedWidth)
	}
	key := resultKey{fp: fp, progKey: keyFor(s.st.Sig(), phi, xVar, opts)}
	return s.evalShared(ctx, key, core.GameBackend, trace, func() (*resultEntry, error) {
		return s.runEvalGame(ctx, nice, phi, xVar, opts, trace)
	})
}

// runEvalGame performs one uncached game evaluation. A panic is
// recovered into a stage-tagged error here.
func (s *Session) runEvalGame(ctx context.Context, nice *tree.Decomposition, phi *mso.Formula, xVar string, opts core.Options, trace *stage.Trace) (e *resultEntry, err error) {
	defer stage.RecoverTo(stage.Eval, &err)
	if testHookEvalStart != nil {
		testHookEvalStart()
	}
	if err := faultinject.Check("session.eval"); err != nil {
		return nil, stage.Wrap(stage.Eval, err)
	}
	res, err := core.EvalGame(ctx, s.st, nice, phi, xVar, opts, trace)
	if err != nil {
		return nil, err
	}
	e = &resultEntry{res: res}
	if res.Selected != nil {
		e.evalSize = res.Selected.Len()
	}
	return e, nil
}

// runEval performs the uncached evaluation stage and returns the result
// with the evaluation output's NumFacts. A panic is recovered into a
// stage-tagged error here.
func (s *Session) runEval(ctx context.Context, compiled *core.Compiled, art artifacts, opts core.Options, trace *stage.Trace) (e *resultEntry, err error) {
	defer stage.RecoverTo(stage.Eval, &err)
	if testHookEvalStart != nil {
		testHookEvalStart()
	}
	if err := faultinject.Check("session.eval"); err != nil {
		return nil, stage.Wrap(stage.Eval, err)
	}
	// Grounding interns program constants into the EDB, so the cached
	// EDB is cloned per evaluation (DB.Clone is a flat copy).
	start := timeNow()
	out, err := compiled.Grounder.Eval(ctx, art.edb.Clone())
	if err != nil {
		return nil, stage.Wrap(stage.Eval, err)
	}
	evalSize := out.NumFacts()
	trace.Record(stage.Eval, timeNow().Sub(start), evalSize, false)
	res, err := core.FinishResult(s.st, compiled, opts, out, art.tuple.Len(), art.width, trace)
	if err != nil {
		return nil, err
	}
	return &resultEntry{res: res, evalSize: evalSize}, nil
}

// cachedResult returns a caller-owned view of a cached Result: the
// shared Selected set is cloned so callers cannot corrupt the cache,
// and the trace is this call's trace.
func cachedResult(res *core.Result, trace *stage.Trace) *core.Result {
	cp := *res
	if cp.Selected != nil {
		cp.Selected = cp.Selected.Clone()
	}
	cp.Trace = trace
	return &cp
}
