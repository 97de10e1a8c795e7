package server

import (
	"io"
	"net/http"
	"reflect"
	"testing"
)

// TestMutateKeepsSessionWarm is the end-to-end incremental story: eval
// warms a session, /mutate edits the structure through it, and
// re-evaluating with the post-edit text the response returned hits the
// same warm session — the requery rebuilds τ_td and re-grounds over it
// without a new decomposition.
func TestMutateKeepsSessionWarm(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	status, raw := postJSON(t, ts.URL+"/eval", EvalRequest{Structure: pathStructure, Formula: "c(x)", Var: "x"}, nil)
	if status != http.StatusOK {
		t.Fatalf("warm-up eval: status %d: %s", status, raw)
	}
	if got := decodeInto[EvalResponse](t, raw).Selected; !reflect.DeepEqual(got, []string{"v0", "v2"}) {
		t.Fatalf("warm-up selected %v, want [v0 v2]", got)
	}

	status, raw = postJSON(t, ts.URL+"/mutate", MutateRequest{
		Structure: pathStructure,
		Insert:    []MutateFact{{Pred: "c", Args: []string{"v1"}}},
	}, nil)
	if status != http.StatusOK {
		t.Fatalf("mutate: status %d: %s", status, raw)
	}
	mut := decodeInto[MutateResponse](t, raw)
	if !mut.DeltaApplied || mut.Invalidated {
		t.Fatalf("covered insert: %+v, want a pure delta", mut)
	}
	if mut.ResultsMaintained != 0 || mut.ResultsDropped != 1 {
		t.Fatalf("ResultsMaintained = %d, ResultsDropped = %d, want 0 and 1", mut.ResultsMaintained, mut.ResultsDropped)
	}

	// Re-query with the canonical post-edit text from the response.
	status, raw = postJSON(t, ts.URL+"/eval", EvalRequest{Structure: mut.Structure, Formula: "c(x)", Var: "x"}, nil)
	if status != http.StatusOK {
		t.Fatalf("re-eval: status %d: %s", status, raw)
	}
	if got := decodeInto[EvalResponse](t, raw).Selected; !reflect.DeepEqual(got, []string{"v0", "v1", "v2"}) {
		t.Fatalf("post-edit selected %v, want [v0 v1 v2]", got)
	}

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	tot := decodeInto[StatszResponse](t, raw).SessionTotals
	if tot.Decompositions != 1 || tot.Evals != 2 || tot.Invalidations != 0 {
		t.Errorf("Decompositions=%d Evals=%d Invalidations=%d, want 1/2/0 (requery must reuse the warm session)",
			tot.Decompositions, tot.Evals, tot.Invalidations)
	}
	if tot.DeltasApplied != 1 || tot.TDBuilds != 2 {
		t.Errorf("DeltasApplied=%d TDBuilds=%d, want 1/2 (the requery rebuilds τ_td only)", tot.DeltasApplied, tot.TDBuilds)
	}
}

// TestMutateRetraction exercises the retraction path over HTTP: the
// session absorbs the removal and the answer set shrinks.
func TestMutateRetraction(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, raw := postJSON(t, ts.URL+"/mutate", MutateRequest{
		Structure: pathStructure,
		Remove:    []MutateFact{{Pred: "c", Args: []string{"v0"}}},
	}, nil)
	if status != http.StatusOK {
		t.Fatalf("mutate: status %d: %s", status, raw)
	}
	mut := decodeInto[MutateResponse](t, raw)
	if mut.Changes != 1 {
		t.Fatalf("Changes = %d, want 1", mut.Changes)
	}
	status, raw = postJSON(t, ts.URL+"/eval", EvalRequest{Structure: mut.Structure, Formula: "c(x)", Var: "x"}, nil)
	if status != http.StatusOK {
		t.Fatalf("eval: status %d: %s", status, raw)
	}
	if got := decodeInto[EvalResponse](t, raw).Selected; !reflect.DeepEqual(got, []string{"v2"}) {
		t.Fatalf("selected %v, want [v2]", got)
	}
}

// TestMutateRejectsMalformed pins the 400 taxonomy: unknown predicates
// and arity mismatches fail before the session is touched.
func TestMutateRejectsMalformed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, req := range []MutateRequest{
		{Structure: pathStructure, Insert: []MutateFact{{Pred: "nope", Args: []string{"v0"}}}},
		{Structure: pathStructure, Insert: []MutateFact{{Pred: "c", Args: []string{"v0", "v1"}}}},
		{Structure: pathStructure, Remove: []MutateFact{{Pred: "edge", Args: []string{"v0"}}}},
	} {
		status, raw := postJSON(t, ts.URL+"/mutate", req, nil)
		if status != http.StatusBadRequest {
			t.Errorf("%+v: status %d (%s), want 400", req, status, raw)
		}
	}
}
