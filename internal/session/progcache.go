package session

import (
	"context"
	"strconv"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mso"
	"repro/internal/stage"
	"repro/internal/structure"
)

// progKey identifies a compiled program: the reduct signature it is
// compiled over, the formula's canonical rendering and every Options
// field that influences compilation. Two structurally identical
// formulas hash to the same key even when built as distinct ASTs, and
// one formula keys alike over every signature with the same reduct.
type progKey struct {
	sig      string
	formula  string
	xVar     string
	backend  string
	width    int
	depth    int
	decision bool
	maxDom   int
	maxTypes int
	maxEDB   int
	budget   int64
}

// keyFor renders the reduct signature compileSafe compiles phi over,
// predicate by predicate (core.InReduct) rather than by building it,
// since every warm Eval computes its keys.
func keyFor(sig *structure.Signature, phi *mso.Formula, xVar string, opts core.Options) progKey {
	sigKey := ""
	for _, p := range sig.Predicates() {
		if core.InReduct(phi, p) {
			sigKey += p.Name + "/" + strconv.Itoa(p.Arity) + ";"
		}
	}
	return progKey{
		sig:      sigKey,
		formula:  phi.String(),
		xVar:     xVar,
		backend:  opts.BackendName(),
		width:    opts.Width,
		depth:    opts.QuantifierDepth,
		decision: opts.Decision,
		maxDom:   opts.MaxWitnessDomain,
		maxTypes: opts.MaxTypes,
		maxEDB:   opts.MaxEDBSubsets,
		budget:   opts.EvalBudget,
	}
}

// progCacheCap is the default FIFO bound on cached compiled programs.
// Compiled programs are a few KB each; the cap keeps an adversarial
// stream of distinct formulas from growing the shared cache without
// bound while comfortably covering any realistic working set.
const progCacheCap = 512

// ProgramCache memoizes MSO-to-datalog compilations per (reduct
// signature, formula, width, options), bounded FIFO. It is safe for
// concurrent use; the lock is held for lookups and inserts only,
// compilation runs outside it, and concurrent requests for the same key
// share one in-flight compilation while requests for cached keys are
// served immediately. A compiled program is immutable and shared by
// every session that evaluates the same query, regardless of structure.
type ProgramCache struct {
	c *cache.Cache[progKey, *core.Compiled]
}

// NewProgramCache returns an empty cache with the default capacity.
func NewProgramCache() *ProgramCache {
	return NewProgramCacheSize(progCacheCap)
}

// NewProgramCacheSize returns an empty cache evicting FIFO beyond n
// entries (n <= 0 means the default capacity).
func NewProgramCacheSize(n int) *ProgramCache {
	if n <= 0 {
		n = progCacheCap
	}
	return &ProgramCache{c: cache.New[progKey, *core.Compiled](n)}
}

// defaultProgramCache backs every session that is not given its own
// cache, so compiled programs are shared across structures.
var defaultProgramCache = NewProgramCache()

// Get returns the compiled program for the key, compiling on a miss.
// The bool result reports whether it was served without compiling in
// this call (a cache hit or a share of another request's in-flight
// compilation). If an in-flight leader fails, waiters with live
// contexts retry the compilation themselves.
func (pc *ProgramCache) Get(ctx context.Context, sig *structure.Signature, phi *mso.Formula, xVar string, opts core.Options) (*core.Compiled, bool, error) {
	return pc.get(ctx, keyFor(sig, phi, xVar, opts), sig, phi, xVar, opts)
}

// get is Get for a caller that has built the key already.
func (pc *ProgramCache) get(ctx context.Context, key progKey, sig *structure.Signature, phi *mso.Formula, xVar string, opts core.Options) (*core.Compiled, bool, error) {
	return pc.c.Do(ctx, key, func() (*core.Compiled, error) {
		return compileSafe(ctx, sig, phi, xVar, opts)
	})
}

// compileSafe compiles phi over its reduct of sig outside the cache
// lock, recovering a panic into a stage-tagged error.
func compileSafe(ctx context.Context, sig *structure.Signature, phi *mso.Formula, xVar string, opts core.Options) (c *core.Compiled, err error) {
	defer stage.RecoverTo(stage.Compile, &err)
	return core.CompileCtx(ctx, core.ReductSignature(sig, phi), phi, xVar, opts)
}

// Shed drops every cached program and returns how many were released,
// keeping hit/miss counters and in-flight compilations intact. The
// server's memory watchdog calls it as the second shedding tier;
// subsequent Gets recompile (or re-enter the cache from a flight
// completing after the shed).
func (pc *ProgramCache) Shed() int { return pc.c.Clear() }

// Stats reports hit/miss counts.
func (pc *ProgramCache) Stats() (hits, misses int) {
	st := pc.c.Stats()
	return st.Hits, st.Misses
}

// Len returns the number of cached programs.
func (pc *ProgramCache) Len() int { return pc.c.Len() }

// Cap returns the cache's FIFO capacity.
func (pc *ProgramCache) Cap() int { return pc.c.Cap() }

// timeNow is a seam kept in one place so stage timing in this package
// is easy to audit.
func timeNow() time.Time { return time.Now() }
