// Incremental evaluation under mutation (see DESIGN.md "Incremental
// evaluation"): Session.Mutate applies an edit batch to the bound
// structure and patches the cached artifacts in place instead of
// discarding them. The structure's change-log (structure.ChangesSince)
// keys the maintenance: a shape-preserving edit keeps the raw, tuple
// and nice decompositions and rebuilds only the τ_td structure; an edit
// absorbed by decompose.Repair keeps the (repaired) raw decomposition
// and rebuilds downstream lazily; everything else — repair fallback,
// lost change-log window, failed edit function — degrades to the
// wholesale invalidation a fingerprint mismatch would have caused.
// Cached query results are dropped on every edit: the next Eval
// re-grounds the compiled program over the new τ_td (Theorem 4.4),
// which costs less than maintaining the old fixpoint did.
package session

import (
	"context"

	"repro/internal/datalog"
	"repro/internal/decompose"
	"repro/internal/structure"
	"repro/internal/tree"
)

// MutationStats reports how one Mutate call was absorbed.
type MutationStats struct {
	// Changes is the number of change-log entries the edit produced.
	Changes int
	// DeltaApplied reports that the cached artifacts were retained (and
	// patched) rather than discarded.
	DeltaApplied bool
	// RepairFallback reports that the local decomposition repair
	// declined the edit and the session invalidated wholesale.
	RepairFallback bool
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
// artifacts with the edit. fn must confine itself to structure edits
// (AddElem / AddTuple / AddFact / RemoveTuple / RemoveFact) and must
// not call back into the session. fn's error is returned verbatim; the
// structure keeps whatever edits fn made before failing, and the
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
	changes, ok := s.st.ChangesSince(rev)
	ms := MutationStats{Changes: len(changes)}
	s.fp = Fingerprint(s.st)
	if ok && len(changes) == 0 {
		return ms, ferr // no-op edit: every cache stays valid
	}
	if ferr != nil || !ok {
		// A partially-applied edit function, or an edit burst larger
		// than the change-log window: no delta to trust.
		s.discardLocked(&ms)
		return ms, ferr
	}
	if s.raw == nil {
		// Cold session — nothing cached to maintain: every cache entry
		// is filed under the fingerprint it was computed for, and none
		// is for the edited structure.
		return ms, nil
	}
	rd, dirty, rerr := decompose.Repair(s.raw, s.st, changes)
	if rerr != nil {
		// Fallback (width excess, wide tuple) and injected faults alike:
		// the repair did not happen, so invalidate wholesale. The edit
		// itself succeeded — callers see the degradation in the stats,
		// not as an error.
		s.stats.RepairFallbacks++
		ms.RepairFallback = true
		s.discardLocked(&ms)
		return ms, nil
	}
	// Shape-preserving edits (covered tuple inserts, any retraction)
	// change no bag and add no node: the tuple and nice normal forms —
	// functions of the raw tree alone — stay valid, and only the τ_td
	// structure is rebuilt, over the same nodes. Repairs that widened
	// bags or added nodes keep the repaired raw tree but rebuild
	// downstream lazily.
	same := rd.Len() == s.raw.Len()
	if same {
		for _, v := range dirty {
			if len(rd.Nodes[v].Bag) != len(s.raw.Nodes[v].Bag) {
				same = false
				break
			}
		}
	}
	// Solver outcomes read the structure through their problem closures;
	// conservatively re-solve after any mutation. Query results are
	// recomputed too: the next Eval re-grounds.
	s.solved.Clear()
	ms.ResultsDropped += s.results.Clear()
	if !same {
		s.raw = rd
		s.tuple, s.td, s.edb = nil, nil, nil
		s.width, s.tdNodes = 0, 0
		s.nice.Clear()
	} else {
		// The nice form is a function of the raw tree alone: refile it
		// under the edited structure's fingerprint.
		nice, kept := s.nice.Peek(oldFP)
		s.nice.Clear()
		if kept {
			s.nice.Add(s.fp, nice)
		}
		if s.td != nil {
			td, _, err := tree.BuildTDCtx(context.Background(), s.st, s.tuple, s.width)
			if err != nil {
				s.discardLocked(&ms)
				return ms, nil
			}
			s.td, s.edb = td, datalog.FromStructure(td, "")
		}
	}
	s.stats.DeltasApplied++
	ms.DeltaApplied = true
	return ms, nil
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
