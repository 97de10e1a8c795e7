package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"

	"repro/internal/bitset"
	"repro/internal/decompose"
	"repro/internal/domset"
	"repro/internal/graph"
	"repro/internal/mso"
	"repro/internal/server"
	"repro/internal/solver"
	"repro/internal/structure"
	"repro/internal/threecol"
	"repro/internal/tree"
	"repro/internal/vcover"
	"repro/internal/wis"
)

// Answers are recorded during the measured phase as a 64-bit hash of a
// canonical rendering, so recording costs no allocation per op and the
// oracle can compare them afterwards, off every clock.

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func renderSelected(names []string) string { return "sel:" + strings.Join(names, " ") }

func hashEval(r *server.EvalResponse) uint64 { return hashString(renderSelected(r.Selected)) }

func hashBatch(r *server.BatchResponse) uint64 {
	parts := make([]string, len(r.Results))
	for i, q := range r.Results {
		parts[i] = strconv.Itoa(q.Status) + " " + renderSelected(q.Selected)
	}
	return hashString(strings.Join(parts, "|"))
}

func renderSolve(r *server.SolveResponse) string {
	switch {
	case r.OK != nil:
		return fmt.Sprintf("ok=%v", *r.OK)
	case r.Count != "":
		return "count=" + r.Count
	case r.Feasible != nil && r.Value != nil:
		return fmt.Sprintf("feasible=%v value=%d", *r.Feasible, *r.Value)
	case r.Feasible != nil:
		return fmt.Sprintf("feasible=%v", *r.Feasible)
	}
	return "empty"
}

func hashSolve(r *server.SolveResponse) uint64 { return hashString(renderSolve(r)) }

// hashEdit covers both halves of an edit op: the post-edit structure
// the server reports and the requery's answer on it.
func hashEdit(structText string, r *server.EvalResponse) uint64 {
	return hashString(structText + "\x00" + renderSelected(r.Selected))
}

// oracle computes the expected answer of every op independently of the
// server: the naive MSO model checker for queries, the problem
// packages' own cold solvers for /solve, and a mirror structure edited
// alongside the server for edit-requery.
type oracle struct {
	mu       sync.Mutex
	formulas map[string]*mso.Formula
}

func newOracle() *oracle {
	return &oracle{formulas: map[string]*mso.Formula{}}
}

func (or *oracle) formula(src string) (*mso.Formula, error) {
	or.mu.Lock()
	defer or.mu.Unlock()
	if f, ok := or.formulas[src]; ok {
		return f, nil
	}
	f, err := mso.Parse(src)
	if err != nil {
		return nil, err
	}
	or.formulas[src] = f
	return f, nil
}

// selected renders the naive answer of formula(x) over st.
func (or *oracle) selected(ctx context.Context, st *structure.Structure, formula string) (string, error) {
	phi, err := or.formula(formula)
	if err != nil {
		return "", err
	}
	sel, err := mso.QueryCtx(ctx, st, phi, "x", nil)
	if err != nil {
		return "", err
	}
	return renderSelected(names(st, sel)), nil
}

func names(st *structure.Structure, sel *bitset.Set) []string {
	out := []string{}
	for _, id := range sel.Elems() {
		out = append(out, st.Name(id))
	}
	return out
}

// expect returns the hash the server's answer to o must have. For an
// edit op, mirror is the client's mirror structure; expect applies the
// op's edit to it first.
func (or *oracle) expect(ctx context.Context, o op, mirror *structure.Structure) (uint64, error) {
	switch o.kind {
	case opEval:
		s, err := or.selected(ctx, o.truth[0], o.eval.Formula)
		return hashString(s), err
	case opBatch:
		parts := make([]string, len(o.batch.Queries))
		for i, q := range o.batch.Queries {
			s, err := or.selected(ctx, o.truth[q.Structure], q.Formula)
			if err != nil {
				return 0, err
			}
			parts[i] = "200 " + s
		}
		return hashString(strings.Join(parts, "|")), nil
	case opSolve:
		s, err := solveOracle(ctx, o.graph, o.solve)
		return hashString(s), err
	case opEdit:
		for _, f := range o.edit.Remove {
			mirror.RemoveFact(f.Pred, f.Args...)
		}
		for _, f := range o.edit.Insert {
			if err := mirror.AddFact(f.Pred, f.Args...); err != nil {
				return 0, err
			}
		}
		s, err := or.selected(ctx, mirror, o.requery)
		return hashString(mirror.String() + "\x00" + s), err
	}
	return 0, fmt.Errorf("oracle: unknown op kind %d", o.kind)
}

// solveOracle answers a /solve request with the problem package's own
// solver on a decomposition computed here, not the server's.
func solveOracle(ctx context.Context, g *graph.Graph, req server.SolveRequest) (string, error) {
	yes := true
	switch req.Problem + "/" + req.Mode {
	case "threecol/decide":
		ok, err := threecol.Decide(g)
		return renderSolve(&server.SolveResponse{OK: &ok}), err
	case "vcover/optimize":
		v, err := vcover.MinVertexCover(g)
		return renderSolve(&server.SolveResponse{Feasible: &yes, Value: &v}), err
	case "wis/optimize":
		v, err := wis.MaxWeight(g, req.Weights)
		return renderSolve(&server.SolveResponse{Feasible: &yes, Value: &v}), err
	case "domset/count":
		d, err := decompose.GraphCtx(ctx, g, decompose.MinFill)
		if err != nil {
			return "", err
		}
		nice, err := tree.NormalizeNice(d, tree.NiceOptions{})
		if err != nil {
			return "", err
		}
		n, err := solver.Count(ctx, nice, domset.Problem(g))
		if err != nil {
			return "", err
		}
		return renderSolve(&server.SolveResponse{Count: n.String()}), nil
	}
	return "", fmt.Errorf("oracle: no solver for %s/%s", req.Problem, req.Mode)
}
