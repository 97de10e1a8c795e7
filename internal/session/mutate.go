// Incremental evaluation under mutation (see DESIGN.md "Incremental
// evaluation"): Session.Mutate applies an edit batch to the bound
// structure and keeps the cached decomposition when it still
// decomposes the edited structure. A raw decomposition whose bags cover
// every element and every tuple of the edited structure is a tree
// decomposition of it (Sec. 2), which tree.Decomposition.Validate
// checks: a covered edit keeps the raw, tuple and nice decompositions
// and drops only the τ_td structure, which the next query rebuilds.
// Everything else — a new element, a tuple no bag covers, a failed edit
// function — degrades to the wholesale invalidation a fingerprint
// mismatch would have caused. Cached query results are dropped on every
// edit: the next Eval re-grounds the compiled program over the new τ_td
// (Theorem 4.4).
package session

import (
	"repro/internal/cache"
	"repro/internal/structure"
)

// MutationStats reports how one Mutate call was absorbed.
type MutationStats struct {
	// Changes is the number of successful structure mutations the edit
	// made (the advance of Structure.Rev).
	Changes int
	// DeltaApplied reports that the cached decompositions were retained
	// rather than discarded.
	DeltaApplied bool
	// Invalidated reports a wholesale artifact discard.
	Invalidated bool
	// ResultsMaintained is always 0: no cached query result is carried
	// through an edit, and the next Eval recomputes it. ResultsDropped
	// counts the cached results the edit evicted.
	ResultsMaintained int
	ResultsDropped    int
}

// Mutate runs fn against the bound structure under the session's write
// lock — serialized against every in-flight build and evaluation, which
// is the supported way to edit a session-bound structure (see the
// Structure mutation contract) — then re-synchronizes the cached
// artifacts with the edit. fn may read the structure; it must confine
// its writes to structure edits (AddElem / AddTuple / AddFact /
// RemoveTuple / RemoveFact), must not call back into the session, and
// may take only locks whose holders never wait for this session (the
// server re-keys its registry there). fn's error is returned verbatim;
// the structure keeps whatever edits fn made before failing, and the
// session stays coherent (a partial edit invalidates wholesale).
func (s *Session) Mutate(fn func(*structure.Structure) error) (MutationStats, error) {
	s.stMu.Lock()
	defer s.stMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	// Absorb any earlier direct (non-Mutate) edit first, exactly as the
	// next evaluation's revalidation would have.
	s.revalidateLocked()
	oldFP := s.fp
	rev := s.st.Rev()
	ferr := fn(s.st)
	ms := MutationStats{Changes: int(s.st.Rev() - rev)}
	s.setFPLocked(Fingerprint(s.st))
	if ms.Changes == 0 {
		return ms, ferr // no-op edit: every cache stays valid
	}
	if ferr != nil {
		// A partially-applied edit function: invalidate wholesale.
		s.discardLocked(&ms)
		return ms, ferr
	}
	raw, warm := s.raw.Peek(oldFP)
	if !warm {
		// Cold session — nothing cached to maintain: every cache entry
		// is filed under the fingerprint it was computed for, and none
		// is for the edited structure.
		return ms, nil
	}
	if raw.d.Validate(s.st) != nil {
		// A new element or an uncovered tuple: the edit itself
		// succeeded, and callers see the rebuild in the stats, not as an
		// error.
		s.discardLocked(&ms)
		return ms, nil
	}
	// The raw tree still decomposes the structure, and the tuple and
	// nice normal forms are functions of it alone: refile all three
	// under the edited structure's fingerprint. τ_td encodes the facts,
	// so the next query rebuilds it. Solver outcomes read the structure
	// through their problem closures and query results through τ_td:
	// both are recomputed.
	refile(s.raw, oldFP, s.fp)
	refile(s.tuple, oldFP, s.fp)
	refile(s.nice, oldFP, s.fp)
	s.td.Clear()
	s.solved.Clear()
	ms.ResultsDropped += s.results.Clear()
	s.stats.DeltasApplied++
	ms.DeltaApplied = true
	return ms, nil
}

// refile moves c's entry under from to the key to, dropping every other
// entry.
func refile[V any](c *cache.Cache[uint64, V], from, to uint64) {
	v, ok := c.Peek(from)
	c.Clear()
	if ok {
		c.Add(to, v)
	}
}

// discardLocked is the wholesale path: drop everything, count it.
func (s *Session) discardLocked(ms *MutationStats) {
	ms.ResultsDropped += s.invalidateLocked()
	s.stats.Invalidations++
	ms.Invalidated = true
}

// View runs fn with read access to the bound structure, serialized
// against Mutate. Callers deriving data from a session-bound structure
// outside an evaluation (building a solver problem over its primal
// graph, rendering it) use View to avoid racing concurrent mutations.
// fn must not call back into session methods.
func (s *Session) View(fn func(*structure.Structure)) {
	s.stMu.RLock()
	defer s.stMu.RUnlock()
	fn(s.st)
}
