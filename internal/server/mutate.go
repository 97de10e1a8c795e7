// POST /mutate: edit a resident structure in place. The request names
// the structure by its current fact-list text; the server routes it to
// the same session /eval and /solve would use, applies the edit batch
// through Session.Mutate (keeping the warm decompositions whenever they
// still cover the edited structure), and re-keys the session
// registry so follow-up requests carrying the response's post-edit
// text keep hitting the warm session.
package server

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/cli"
	"repro/internal/session"
	"repro/internal/structure"
)

// MutateFact names one fact of a mutation batch by predicate and
// element names.
type MutateFact struct {
	Pred string   `json:"pred"`
	Args []string `json:"args"`
}

// MutateRequest edits the structure given by its current fact-list
// text: elements in AddElems are added first, then Remove retracts
// facts, then Insert asserts facts (creating any missing elements).
// Removing an absent fact is a no-op.
type MutateRequest struct {
	Structure string       `json:"structure"`
	AddElems  []string     `json:"add_elems,omitempty"`
	Remove    []MutateFact `json:"remove,omitempty"`
	Insert    []MutateFact `json:"insert,omitempty"`
}

// MutateResponse returns the post-edit structure (canonical fact-list
// text — the key for follow-up requests against the warm session) and
// the session.MutationStats receipt saying how the edit was absorbed.
// Fingerprint is the session's; it is Structure's too unless the edit
// emptied a predicate, which a text cannot declare.
type MutateResponse struct {
	Structure         string `json:"structure"`
	Fingerprint       string `json:"fingerprint"`
	Changes           int    `json:"changes"`
	DeltaApplied      bool   `json:"delta_applied"`
	Invalidated       bool   `json:"invalidated"`
	ResultsMaintained int    `json:"results_maintained"` // always 0: results are recomputed after an edit
	ResultsDropped    int    `json:"results_dropped"`
}

// checkFacts validates a fact list against the structure's signature up
// front, so a malformed request fails with 400 before Mutate runs (an
// edit function error would needlessly invalidate the session).
func checkFacts(st *structure.Structure, kind string, facts []MutateFact) error {
	for i, f := range facts {
		_, p, ok := st.Sig().Lookup(f.Pred)
		if !ok {
			return fmt.Errorf("%w: %s %d: unknown predicate %q", cli.ErrUsage, kind, i, f.Pred)
		}
		if len(f.Args) != p.Arity {
			return fmt.Errorf("%w: %s %d: %s expects %d args, got %d", cli.ErrUsage, kind, i, f.Pred, p.Arity, len(f.Args))
		}
	}
	return nil
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	var req MutateRequest
	if err := s.decode(r, &req); err != nil {
		s.fail(w, err)
		return
	}
	ctx, cancel, err := s.admit(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer cancel()
	st, err := parseStructure(req.Structure)
	if err != nil {
		s.fail(w, err)
		return
	}
	if err := checkFacts(st, "remove", req.Remove); err != nil {
		s.fail(w, err)
		return
	}
	if err := checkFacts(st, "insert", req.Insert); err != nil {
		s.fail(w, err)
		return
	}
	oldFP := session.Fingerprint(st)
	finish, err := s.admitOverload(ctx, []uint64{oldFP}, estimateCost(len(req.Structure), costMutate))
	if err != nil {
		s.fail(w, err)
		return
	}
	var (
		ms   session.MutationStats
		text string
		fp   uint64
	)
	for {
		sess := s.sessionFor(oldFP, st)
		if s.testGate != nil {
			s.testGate(ctx, "mutate")
		}
		ms, err = sess.Mutate(func(cur *structure.Structure) error {
			// A concurrent /mutate may have edited the session since it
			// was bound: edit only the structure the request's text
			// describes, as a fresh server would.
			if session.Fingerprint(cur) != oldFP {
				return session.ErrMoved
			}
			// Re-key under the edit lock, on every return path.
			defer func() {
				fp = session.Fingerprint(cur)
				s.rekeySession(sess, oldFP, fp)
			}()
			for _, n := range req.AddElems {
				cur.AddElem(n)
			}
			for _, f := range req.Remove {
				cur.RemoveFact(f.Pred, f.Args...)
			}
			for _, f := range req.Insert {
				if err := cur.AddFact(f.Pred, f.Args...); err != nil {
					return err
				}
			}
			text = cur.String()
			return nil
		})
		if !errors.Is(err, session.ErrMoved) {
			break
		}
		// The session left oldFP, and st may be the structure that was
		// edited: bind the text again from a fresh parse, as onText does.
		if st, err = parseStructure(req.Structure); err != nil {
			break
		}
	}
	if err != nil {
		finish(sameOutcome(err))
		s.fail(w, fmt.Errorf("%w: %v", cli.ErrUsage, err))
		return
	}
	finish(sameOutcome(nil))
	s.reply(w, http.StatusOK, MutateResponse{
		Structure:         text,
		Fingerprint:       fmt.Sprintf("%016x", fp),
		Changes:           ms.Changes,
		DeltaApplied:      ms.DeltaApplied,
		Invalidated:       ms.Invalidated,
		ResultsMaintained: ms.ResultsMaintained,
		ResultsDropped:    ms.ResultsDropped,
	})
}

// rekeySession moves sess from the registry key oldFP to fp. A key
// already mapping to a different session is left alone — first
// structure wins, exactly as sessionFor resolves it.
func (s *Server) rekeySession(sess *session.Session, oldFP, fp uint64) {
	if fp == oldFP {
		return
	}
	s.sessions.Delete(oldFP, func(v *session.Session) bool { return v == sess })
	s.sessions.Add(fp, sess)
}
