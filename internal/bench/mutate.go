package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mso"
	"repro/internal/session"
	"repro/internal/structure"
)

// MutateResult reports the incremental-evaluation experiment: a warm
// session absorbing single-tuple edits through Session.Mutate versus
// the pre-incremental behavior — the same edit invalidating the session
// wholesale and recomputing cold. Every edit's answer set is compared
// across the two sessions; Matched is false (and the run errors) on any
// divergence. What Mutate saves is the front end: the warm side keeps
// its decomposition and normal forms, which still cover the edited
// structure, and rebuilds τ_td, where the cold side decomposes and
// normalizes again; both re-ground the query.
type MutateResult struct {
	Elems int `json:"elems"`
	Edits int `json:"edits"`
	// WarmNS / ColdNS total the edit+requery round trips on each side.
	WarmNS        int64   `json:"warm_ns"`
	ColdNS        int64   `json:"cold_ns"`
	WarmPerEditNS int64   `json:"warm_per_edit_ns"`
	ColdPerEditNS int64   `json:"cold_per_edit_ns"`
	Speedup       float64 `json:"speedup"`
	// Warm-session receipts: every edit must be absorbed incrementally,
	// so the warm session decomposes once, before the first edit.
	DeltasApplied      int  `json:"deltas_applied"`
	Invalidations      int  `json:"invalidations"`
	WarmDecompositions int  `json:"warm_decompositions"`
	Matched            bool `json:"matched"`
}

var sigMutateBench = structure.MustSignature(
	structure.Predicate{Name: "e", Arity: 2},
	structure.Predicate{Name: "c", Arity: 1},
)

// mutateWorkload is a colored path: treewidth 1, the regime where the
// quantifier-free MSO compilation is cheap and evaluation dominates.
func mutateWorkload(n int) *structure.Structure {
	st := structure.New(sigMutateBench)
	for i := 0; i < n; i++ {
		st.AddElem(fmt.Sprintf("v%d", i))
	}
	for i := 0; i+1 < n; i++ {
		st.MustAddTuple("e", i, i+1)
	}
	for i := 0; i < n; i += 2 {
		st.MustAddTuple("c", i)
	}
	return st
}

// Mutate measures edits single-tuple color toggles over an n-element
// path, each followed by a re-query of c(x). The warm side goes through
// Session.Mutate (decomposition kept, τ_td rebuilt); the cold side
// applies the identical edit directly to its structure, which the
// session's fingerprint revalidation treats as a wholesale invalidation
// — the pre-incremental cost of any edit. Both sides share one program
// cache, so compilation is warm everywhere and the comparison isolates
// validate+build+eval against decompose+normalize+build+eval.
func Mutate(ctx context.Context, n, edits int) (MutateResult, error) {
	res := MutateResult{Elems: n, Edits: edits}
	if n < 2 || edits <= 0 {
		return res, fmt.Errorf("bench: mutate needs ≥2 elements and ≥1 edit, got %d and %d", n, edits)
	}
	phi := mso.MustParse("c(x)")
	progs := session.NewProgramCache()
	warmSt := mutateWorkload(n)
	coldSt := mutateWorkload(n)
	warm := session.NewWithCache(warmSt, progs)
	cold := session.NewWithCache(coldSt, progs)
	if _, err := warm.Eval(ctx, phi, "x", core.Options{}); err != nil {
		return res, fmt.Errorf("bench: warm-up: %w", err)
	}
	if _, err := cold.Eval(ctx, phi, "x", core.Options{}); err != nil {
		return res, fmt.Errorf("bench: warm-up: %w", err)
	}

	toggle := func(st *structure.Structure, v int) {
		if st.Has("c", v) {
			st.RemoveTuple("c", v)
		} else {
			st.MustAddTuple("c", v)
		}
	}
	res.Matched = true
	for i := 0; i < edits; i++ {
		v := i % n

		t0 := time.Now()
		if _, err := warm.Mutate(func(st *structure.Structure) error {
			toggle(st, v)
			return nil
		}); err != nil {
			return res, fmt.Errorf("bench: edit %d: %w", i, err)
		}
		wres, err := warm.Eval(ctx, phi, "x", core.Options{})
		if err != nil {
			return res, fmt.Errorf("bench: warm requery %d: %w", i, err)
		}
		res.WarmNS += time.Since(t0).Nanoseconds()

		t0 = time.Now()
		toggle(coldSt, v) // direct edit: fingerprint mismatch → invalidate
		cres, err := cold.Eval(ctx, phi, "x", core.Options{})
		if err != nil {
			return res, fmt.Errorf("bench: cold requery %d: %w", i, err)
		}
		res.ColdNS += time.Since(t0).Nanoseconds()

		if !wres.Selected.Equal(cres.Selected) {
			res.Matched = false
			return res, fmt.Errorf("bench: edit %d: warm answer diverged from cold recompute", i)
		}
	}
	stats := warm.Stats()
	res.DeltasApplied = stats.DeltasApplied
	res.Invalidations = stats.Invalidations
	res.WarmDecompositions = stats.Decompositions
	res.WarmPerEditNS = res.WarmNS / int64(edits)
	res.ColdPerEditNS = res.ColdNS / int64(edits)
	if res.WarmNS > 0 {
		res.Speedup = float64(res.ColdNS) / float64(res.WarmNS)
	}
	return res, nil
}
