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
// Concurrency: all methods are safe for concurrent use, and the session
// mutex is held only for cache lookups and inserts — never across
// artifact construction, compilation or evaluation. Expensive work runs
// under per-key single-flight: concurrent requests for the same missing
// artifact, compiled program or evaluation result share one in-flight
// computation, while requests answerable from cache complete
// immediately even when a cold computation is running on the same
// session. If an in-flight leader fails, waiting requests with live
// contexts retry (resuming after any stages the failed run completed)
// rather than inheriting the leader's error.
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

	// Register the game backend so any session user (server, CLIs,
	// tests) can select it by name without its own import.
	_ "repro/internal/backend/game"
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
// non-default backends evaluate, as they read neither).
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
// methods are safe for concurrent use; the mutex guards only cache
// state, and construction/evaluation run outside it under per-key
// single-flight (see the package comment).
type Session struct {
	st    *structure.Structure
	progs *ProgramCache

	// stMu serializes structure access: builds and evaluations read the
	// bound structure under RLock, and Mutate edits it (and re-syncs the
	// caches) under Lock. Lock order is stMu, then mu, then a cache's
	// lock: nothing acquires stMu while holding mu, nor mu while holding
	// a cache's lock.
	stMu sync.RWMutex

	mu    sync.Mutex
	fp    uint64
	stats Stats

	raw     *tree.Decomposition  // ladder decomposition of st
	rung    string               // degradation-ladder rung that produced raw
	tuple   *tree.Decomposition  // tuple normal form
	width   int                  // normalized width
	td      *structure.Structure // τ_td structure
	edb     *datalog.DB          // EDB of td (cloned per evaluation)
	tdNodes int

	// building is the in-flight front-end build, if any. Concurrent
	// requests for missing artifacts wait on it instead of rebuilding.
	building *artifactFlight

	// The caches below hold what is computed from the artifacts, each
	// entry keyed by the fingerprint of the artifacts it was computed
	// from, so a stored value is right for its key whenever it lands and
	// a request never shares a computation begun before an edit.
	// Evaluation is deterministic, so an unchanged structure makes a
	// repeat of the same (formula, options) or (problem, mode) a pure
	// cache hit. nice holds the nice normal form (built on demand),
	// results the evaluated queries and solved the semiring-solver
	// outcomes (see SolveDecide / SolveCount / SolveOptimize).
	nice    *cache.Cache[uint64, *tree.Decomposition]
	results *cache.Cache[resultKey, *resultEntry]
	solved  *cache.Cache[solverKey, any]
}

// Per-session cache caps. The nice form has one current entry; the
// second slot keeps a normalization that an edit overtook from
// displacing it when it lands.
const (
	niceCap   = 2
	resultCap = 256
	solverCap = 64
)

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

// artifactFlight is one in-flight front-end build, shared by every
// request that arrives while it runs. full distinguishes a
// decomposition-only build from the full decompose → normalize-tuple →
// build-td chain; a waiter that needs more than the flight is building
// loops and leads its own (resumed) build when the flight completes.
type artifactFlight struct {
	full bool
	done chan struct{}
	art  artifacts // stages built, valid once done is closed
	rung string
	err  error
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
		nice:    cache.New[uint64, *tree.Decomposition](niceCap),
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
	st.NiceNormalizations = s.nice.Stats().Misses
	return st
}

// ProgramCacheStats reports the hit/miss counters of the session's
// program cache (shared across sessions unless NewWithCache was used).
func (s *Session) ProgramCacheStats() (hits, misses int) { return s.progs.Stats() }

// Invalidate drops all cached artifacts; the next evaluation rebuilds
// them. Called automatically when the structure's fingerprint changes.
func (s *Session) Invalidate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.invalidateLocked()
}

// invalidateLocked drops every cached artifact and returns how many
// query results went with them.
func (s *Session) invalidateLocked() int {
	s.raw, s.tuple, s.td, s.edb = nil, nil, nil, nil
	s.rung = ""
	s.tdNodes, s.width = 0, 0
	s.nice.Clear()
	s.solved.Clear()
	return s.results.Clear()
}

// ShedResults drops the per-session result and solver caches — the
// memory-dominant state: full core.Results and solver outcomes — while
// keeping the structural artifacts (decomposition, τ_td, EDB), which are
// cheap to hold and expensive to rebuild. It returns how many cached
// entries were released. The server's memory watchdog calls it as the
// first shedding tier; subsequent evaluations recompute and re-populate.
// In-flight evaluations are unaffected (their results re-enter the
// cache when they complete).
func (s *Session) ShedResults() int {
	return s.results.Clear() + s.solved.Clear()
}

// revalidateLocked discards the cached artifacts if the structure's
// fingerprint changed since they were built. After a failed run the
// session may still hold artifacts from the stages that succeeded, and
// a structure mutation in between must not let them leak into the next
// run.
func (s *Session) revalidateLocked() {
	fp := Fingerprint(s.st)
	if fp != s.fp && (s.raw != nil || s.tuple != nil || s.td != nil ||
		s.nice.Len() > 0 || s.results.Len() > 0 || s.solved.Len() > 0) {
		s.invalidateLocked()
		s.stats.Invalidations++
	}
	s.fp = fp
}

// artifacts holds the per-structure products of the pipeline front end,
// with the fingerprint of the structure they were built for. Whatever
// is computed from them is cached under that fingerprint.
type artifacts struct {
	fp      uint64
	raw     *tree.Decomposition
	tuple   *tree.Decomposition
	width   int
	td      *structure.Structure
	edb     *datalog.DB
	tdNodes int
}

// ensure builds (or revalidates) the cached decomposition, tuple form,
// τ_td structure and EDB, recording stage stats into trace. Cached
// stages are recorded with CacheHit set and zero wall time.
func (s *Session) ensure(ctx context.Context, trace *stage.Trace) (artifacts, error) {
	return s.frontEnd(ctx, trace, true)
}

// frontEnd returns the front-end artifacts, building missing stages
// under single-flight. With full unset only the raw decomposition is
// guaranteed. The mutex is held for lookups and inserts only; at most
// one build runs at a time, every stage stores its artifact on success
// (so a failed build leaves exactly the completed stages behind and a
// retry resumes after them), and concurrent callers share the in-flight
// build instead of queueing behind the lock.
func (s *Session) frontEnd(ctx context.Context, trace *stage.Trace, full bool) (artifacts, error) {
	for {
		if err := ctx.Err(); err != nil {
			return artifacts{}, stage.Wrap(stage.Decompose, err)
		}
		s.mu.Lock()
		s.revalidateLocked()
		if s.raw != nil && (!full || (s.tuple != nil && s.td != nil)) {
			art := artifacts{fp: s.fp, raw: s.raw, tuple: s.tuple, width: s.width, td: s.td, edb: s.edb, tdNodes: s.tdNodes}
			rung := s.rung
			s.mu.Unlock()
			recordFrontEndHits(trace, art, rung, full)
			return art, nil
		}
		if f := s.building; f != nil {
			covers := f.full || !full
			s.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return artifacts{}, stage.Wrap(stage.Decompose, ctx.Err())
			}
			if covers && f.err == nil {
				recordFrontEndHits(trace, f.art, f.rung, full)
				return f.art, nil
			}
			// The flight was narrower than we need, or its leader
			// failed: loop and either hit the now-populated cache, join
			// a newer flight, or lead a (resumed) build ourselves.
			continue
		}
		f := &artifactFlight{full: full, done: make(chan struct{})}
		s.building = f
		s.mu.Unlock()

		// Read what the build starts from only once edits are held off,
		// so that the artifacts, and the fingerprint they carry, are those
		// of the structure the build reads: a Mutate landing before the
		// read lock has already brought them up to date.
		s.stMu.RLock()
		s.mu.Lock()
		fp := s.fp
		have := artifacts{fp: fp, raw: s.raw, tuple: s.tuple, width: s.width, td: s.td, edb: s.edb, tdNodes: s.tdNodes}
		rung := s.rung
		s.mu.Unlock()
		art, rung, built, err := s.buildFrontEnd(ctx, trace, have, rung, full)
		s.stMu.RUnlock()

		s.mu.Lock()
		s.building = nil
		if built.decompose {
			s.stats.Decompositions++
		}
		if built.tuple {
			s.stats.TupleNormalizations++
		}
		if built.td {
			s.stats.TDBuilds++
		}
		// Store only if the structure still matches the fingerprint the
		// build started from: a mutation mid-build must not poison the
		// cache with artifacts for a structure that no longer exists.
		if Fingerprint(s.st) == fp {
			if art.raw != nil {
				s.raw, s.rung = art.raw, rung
			}
			if art.tuple != nil {
				s.tuple, s.width = art.tuple, art.width
			}
			if art.td != nil {
				s.td, s.edb, s.tdNodes = art.td, art.edb, art.tdNodes
			}
		}
		f.art, f.rung, f.err = art, rung, err
		s.mu.Unlock()
		close(f.done)
		if err != nil {
			return artifacts{}, err
		}
		return art, nil
	}
}

// recordFrontEndHits records cache-hit trace entries for artifacts this
// request did not build itself (served from cache or from another
// request's in-flight build).
func recordFrontEndHits(trace *stage.Trace, art artifacts, rung string, full bool) {
	trace.RecordDetail(stage.Decompose, 0, art.raw.Len(), true, rung)
	if !full {
		return
	}
	trace.Record(stage.NormalizeTuple, 0, art.tuple.Len(), true)
	trace.Record(stage.BuildTD, 0, art.td.Size(), true)
}

// builtStages reports which stages a build actually performed, for
// stats accounting.
type builtStages struct {
	decompose, tuple, td bool
}

// buildFrontEnd runs the missing front-end stages starting from the
// artifacts in have. It runs outside the session mutex; a stage panic
// is recovered into a stage-tagged error here so the caller's flight
// bookkeeping always runs.
func (s *Session) buildFrontEnd(ctx context.Context, trace *stage.Trace, have artifacts, rung string, full bool) (art artifacts, outRung string, built builtStages, err error) {
	cur := stage.Decompose
	defer stage.RecoverAt(&cur, &err)
	art, outRung = have, rung
	if art.raw == nil {
		if err := faultinject.Check("session.decompose"); err != nil {
			return art, outRung, built, stage.Wrap(stage.Decompose, err)
		}
		start := timeNow()
		d, r, err := decompose.StructureLadderCtx(ctx, s.st)
		if err != nil {
			return art, outRung, built, stage.Wrap(stage.Decompose, err)
		}
		art.raw, outRung = d, r
		built.decompose = true
		trace.RecordDetail(stage.Decompose, timeNow().Sub(start), d.Len(), false, r)
	} else {
		trace.RecordDetail(stage.Decompose, 0, art.raw.Len(), true, outRung)
	}
	if !full {
		return art, outRung, built, nil
	}
	cur = stage.NormalizeTuple
	if art.tuple == nil {
		if err := faultinject.Check("session.normalize-tuple"); err != nil {
			return art, outRung, built, stage.Wrap(stage.NormalizeTuple, err)
		}
		if err := art.raw.Validate(s.st); err != nil {
			return art, outRung, built, fmt.Errorf("session: invalid decomposition: %w", err)
		}
		start := timeNow()
		norm, err := tree.NormalizeTupleCtx(ctx, art.raw)
		if err != nil {
			return art, outRung, built, stage.Wrap(stage.NormalizeTuple, err)
		}
		art.tuple = norm
		art.width = norm.Width()
		built.tuple = true
		trace.Record(stage.NormalizeTuple, timeNow().Sub(start), norm.Len(), false)
	} else {
		trace.Record(stage.NormalizeTuple, 0, art.tuple.Len(), true)
	}
	cur = stage.BuildTD
	if art.td == nil {
		if err := faultinject.Check("session.build-td"); err != nil {
			return art, outRung, built, stage.Wrap(stage.BuildTD, err)
		}
		start := timeNow()
		td, _, err := tree.BuildTDCtx(ctx, s.st, art.tuple, art.width)
		if err != nil {
			return art, outRung, built, stage.Wrap(stage.BuildTD, err)
		}
		art.td = td
		art.edb = datalog.FromStructure(td, "")
		art.tdNodes = art.tuple.Len()
		built.td = true
		trace.Record(stage.BuildTD, timeNow().Sub(start), td.Size(), false)
	} else {
		trace.Record(stage.BuildTD, 0, art.td.Size(), true)
	}
	return art, outRung, built, nil
}

// Warm builds (or revalidates) every front-end artifact and returns the
// stage trace of doing so — cached stages appear with CacheHit set.
// CLIs use it to surface per-stage timings without running a query.
func (s *Session) Warm(ctx context.Context) (*Trace, error) {
	trace := &stage.Trace{}
	if _, err := s.ensure(ctx, trace); err != nil {
		return trace, err
	}
	return trace, nil
}

// Decomposition returns the session's cached raw tree decomposition
// (computed on first use by the degradation ladder; see
// decompose.GraphLadderCtx).
func (s *Session) Decomposition(ctx context.Context) (*tree.Decomposition, error) {
	trace := &stage.Trace{}
	art, err := s.frontEnd(ctx, trace, false)
	if err != nil {
		return nil, err
	}
	return art.raw, nil
}

// TupleForm returns the cached tuple normal form (Def. 2.3) and its
// width, normalizing on first use.
func (s *Session) TupleForm(ctx context.Context) (*tree.Decomposition, int, error) {
	trace := &stage.Trace{}
	art, err := s.ensure(ctx, trace)
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
	trace := &stage.Trace{}
	art, err := s.frontEnd(ctx, trace, false)
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

// TauTD returns the cached τ_td structure of Section 4.
func (s *Session) TauTD(ctx context.Context) (*structure.Structure, error) {
	trace := &stage.Trace{}
	art, err := s.ensure(ctx, trace)
	if err != nil {
		return nil, err
	}
	return art.td, nil
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
	if opts.BackendName() != core.DefaultBackend {
		// Alternate backends evaluate lazily on the cached nice
		// decomposition: no tuple form, τ_td, datalog compilation or
		// program cache.
		return s.evalBackend(ctx, phi, xVar, opts, trace)
	}
	art, err := s.ensure(ctx, trace)
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
		s.stMu.RLock()
		defer s.stMu.RUnlock()
		s.mu.Lock()
		edited := s.fp != key.fp
		s.mu.Unlock()
		if edited {
			return nil, editedError{}
		}
		return eval()
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

// evalBackend is Eval's path for non-default backends: it resolves the
// named backend and feeds it the session's cached nice decomposition,
// built from the raw decomposition alone, through the same result cache
// as the default path. opts.RequestedWidth is checked against the nice
// form's width before the result cache is consulted, since result-cache
// keys do not include it. They do include the backend name (see
// keyFor), so the same formula evaluated under different backends
// occupies distinct entries and a backend switch can never serve
// another backend's result.
func (s *Session) evalBackend(ctx context.Context, phi *mso.Formula, xVar string, opts core.Options, trace *stage.Trace) (*core.Result, error) {
	b, err := core.BackendByName(opts.BackendName())
	if err != nil {
		return nil, stage.Wrap(stage.Compile, err)
	}
	nb, ok := b.(core.NiceBackend)
	if !ok {
		return nil, stage.Wrap(stage.Compile, fmt.Errorf("session: backend %q cannot evaluate on cached session artifacts", b.Name()))
	}
	nice, fp, err := s.niceForm(ctx)
	if err != nil {
		return nil, err
	}
	if opts.RequestedWidth != nil && *opts.RequestedWidth != nice.Width() {
		return nil, fmt.Errorf("session: decomposition width %d does not match requested width %d", nice.Width(), *opts.RequestedWidth)
	}
	key := resultKey{fp: fp, progKey: keyFor(s.st.Sig(), phi, xVar, opts)}
	return s.evalShared(ctx, key, nb.Name(), trace, func() (*resultEntry, error) {
		return s.runEvalBackend(ctx, nb, nice, phi, xVar, opts, trace)
	})
}

// runEvalBackend performs one uncached alternate-backend evaluation. A
// panic is recovered into a stage-tagged error here.
func (s *Session) runEvalBackend(ctx context.Context, nb core.NiceBackend, nice *tree.Decomposition, phi *mso.Formula, xVar string, opts core.Options, trace *stage.Trace) (e *resultEntry, err error) {
	defer stage.RecoverTo(stage.Eval, &err)
	if testHookEvalStart != nil {
		testHookEvalStart()
	}
	if err := faultinject.Check("session.eval"); err != nil {
		return nil, stage.Wrap(stage.Eval, err)
	}
	res, err := nb.EvalNiceCtx(ctx, s.st, nice, phi, xVar, opts, trace)
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
	res, err := core.FinishResult(s.st, compiled, opts, out, art.tdNodes, art.width, trace)
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
