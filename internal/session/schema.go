package session

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/bitset"
	"repro/internal/cache"
	"repro/internal/primality"
	"repro/internal/schema"
	"repro/internal/structure"
)

// SchemaSession binds a relational schema for the PRIMALITY programs of
// Sections 5.2–5.3: it caches the decomposed primality.Instance and
// memoizes the full prime-attribute enumeration, keyed by a schema
// fingerprint for invalidation. Safe for concurrent use.
type SchemaSession struct {
	s *schema.Schema

	mu     sync.Mutex
	fp     uint64
	valid  bool
	inst   *primality.Instance
	primes *bitset.Set
	stats  Stats
}

// NewSchemaSession creates a session bound to s.
func NewSchemaSession(s *schema.Schema) *SchemaSession {
	return &SchemaSession{s: s}
}

// Schema returns the bound schema.
func (ss *SchemaSession) Schema() *schema.Schema { return ss.s }

// Stats returns a snapshot of the session's operation counters
// (Decompositions counts primality instance builds here).
func (ss *SchemaSession) Stats() Stats {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.stats
}

// Instance returns the cached primality instance (decomposition of the
// schema's τ-structure), building it on first use or after the schema
// changed.
func (ss *SchemaSession) Instance(ctx context.Context) (*primality.Instance, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.instanceLocked(ctx)
}

func (ss *SchemaSession) instanceLocked(ctx context.Context) (*primality.Instance, error) {
	fp := SchemaFingerprint(ss.s)
	if ss.valid && fp != ss.fp {
		ss.inst, ss.primes = nil, nil
		ss.valid = false
		ss.stats.Invalidations++
	}
	ss.fp = fp
	if ss.inst == nil {
		in, err := primality.NewInstanceCtx(ctx, ss.s)
		if err != nil {
			return nil, err
		}
		ss.inst = in
		ss.stats.Decompositions++
	}
	ss.valid = true
	return ss.inst, nil
}

// Primes returns the set of prime attributes by the linear enumeration
// algorithm of Section 5.3, memoized until the schema changes. The
// returned set is a copy.
func (ss *SchemaSession) Primes(ctx context.Context) (*bitset.Set, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	in, err := ss.instanceLocked(ctx)
	if err != nil {
		return nil, err
	}
	if ss.primes == nil {
		primes, err := in.EnumerateCtx(ctx)
		if err != nil {
			return nil, err
		}
		ss.primes = primes
		ss.stats.Evals++
	}
	return ss.primes.Clone(), nil
}

// IsPrime decides primality of a single attribute by name, through the
// cached instance.
func (ss *SchemaSession) IsPrime(ctx context.Context, attr string) (bool, error) {
	a, ok := ss.s.Attr(attr)
	if !ok {
		return false, fmt.Errorf("session: unknown attribute %s", attr)
	}
	ss.mu.Lock()
	in, err := ss.instanceLocked(ctx)
	ss.mu.Unlock()
	if err != nil {
		return false, err
	}
	return in.DecideCtx(ctx, a)
}

// ---- package-level registries ----
//
// The compatibility wrappers (monadic.RunMSO, monadic.Primes, …) take a
// bare structure or schema, so they reach their session through these
// bounded identity-keyed registries: repeated calls on the same object
// reuse one session (and its artifacts) instead of rebuilding the
// pipeline. Entries are evicted FIFO beyond registryCap; content
// changes are handled by the sessions' own fingerprint invalidation.

const registryCap = 64

var (
	structReg = cache.New[*structure.Structure, *Session](registryCap)
	schemaReg = cache.New[*schema.Schema, *SchemaSession](registryCap)
)

// For returns the registry session for st, creating it on first use.
func For(st *structure.Structure) *Session {
	return structReg.GetOrAdd(st, func() *Session { return New(st) })
}

// ForSchema returns the registry session for s, creating it on first
// use.
func ForSchema(s *schema.Schema) *SchemaSession {
	return schemaReg.GetOrAdd(s, func() *SchemaSession { return NewSchemaSession(s) })
}
