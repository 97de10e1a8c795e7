package server

import (
	"context"
	"io"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/overload"
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

// TestMutatePreEditTextAnswersPreEdit pins the structure-text memo
// against /mutate: once a text has resolved to a resident session, an
// edit moves that session to the post-edit fingerprint, and the pre-edit
// text must then reach a session of the pre-edit structure — never the
// edited one — through /eval and /batch alike.
func TestMutatePreEditTextAnswersPreEdit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	selected := func(text string) []string {
		t.Helper()
		status, raw := postJSON(t, ts.URL+"/eval", EvalRequest{Structure: text, Formula: "c(x)", Var: "x"}, nil)
		if status != http.StatusOK {
			t.Fatalf("eval: status %d: %s", status, raw)
		}
		return decodeInto[EvalResponse](t, raw).Selected
	}
	pre, post := []string{"v0", "v2"}, []string{"v0", "v1", "v2"}
	for i := 0; i < 2; i++ { // the second request resolves through the memo
		if got := selected(pathStructure); !reflect.DeepEqual(got, pre) {
			t.Fatalf("pre-edit eval %d: selected %v, want %v", i, got, pre)
		}
	}
	status, raw := postJSON(t, ts.URL+"/mutate", MutateRequest{
		Structure: pathStructure,
		Insert:    []MutateFact{{Pred: "c", Args: []string{"v1"}}},
	}, nil)
	if status != http.StatusOK {
		t.Fatalf("mutate: status %d: %s", status, raw)
	}
	mut := decodeInto[MutateResponse](t, raw)
	if got := selected(pathStructure); !reflect.DeepEqual(got, pre) {
		t.Fatalf("pre-edit text after the edit: selected %v, want %v", got, pre)
	}
	if got := selected(mut.Structure); !reflect.DeepEqual(got, post) {
		t.Fatalf("post-edit text: selected %v, want %v", got, post)
	}
	status, raw = postJSON(t, ts.URL+"/batch", BatchRequest{
		Structures: []string{pathStructure, mut.Structure},
		Queries: []BatchQuery{
			{Structure: 0, Formula: "c(x)", Var: "x"},
			{Structure: 1, Formula: "c(x)", Var: "x"},
		},
	}, nil)
	if status != http.StatusOK {
		t.Fatalf("batch: status %d: %s", status, raw)
	}
	for i, want := range [][]string{pre, post} {
		if got := decodeInto[BatchResponse](t, raw).Results[i].Selected; !reflect.DeepEqual(got, want) {
			t.Fatalf("batch query %d: selected %v, want %v", i, got, want)
		}
	}
}

// TestMutateQueuedAheadOfPreEditText pins when a request reads the
// session registry: after admission, not when its text resolves. With
// the only limiter slot held, a /mutate of a resident structure queues
// first and an /eval of that structure's memoized pre-edit text queues
// behind it. The mutate edits the session while the eval waits, so the
// eval must bind a session of the pre-edit structure once admitted and
// answer for it.
func TestMutateQueuedAheadOfPreEditText(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Limiter: overload.LimiterConfig{Initial: 1, Min: 1, Max: 1, QueueCap: 4, LatencyTarget: -1},
	})
	entered := make(chan struct{})
	release := make(chan struct{})
	var gateOnce sync.Once
	s.testGate = func(_ context.Context, op string) {
		if op != "solve" {
			return
		}
		gateOnce.Do(func() {
			close(entered)
			<-release
		})
	}
	evalReq := EvalRequest{Structure: pathStructure, Formula: "c(x)", Var: "x"}
	if status, raw := postJSON(t, ts.URL+"/eval", evalReq, nil); status != http.StatusOK {
		t.Fatalf("warm-up eval: status %d: %s", status, raw)
	}
	type reply struct {
		status int
		raw    []byte
	}
	send := func(path string, body any) chan reply {
		c := make(chan reply, 1)
		go func() {
			status, raw := postJSON(t, ts.URL+path, body, nil)
			c <- reply{status, raw}
		}()
		return c
	}
	queued := func(n int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); s.limiter.Stats().QueueDepth < n; {
			if time.Now().After(deadline) {
				t.Fatalf("limiter queue depth %d, want %d", s.limiter.Stats().QueueDepth, n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	holder := send("/solve", SolveRequest{Structure: flatStructure, Problem: "threecol", Mode: "decide"})
	<-entered
	mutate := send("/mutate", MutateRequest{
		Structure: pathStructure,
		Insert:    []MutateFact{{Pred: "c", Args: []string{"v1"}}},
	})
	queued(1)
	eval := send("/eval", evalReq)
	queued(2)
	close(release)
	for name, c := range map[string]chan reply{"solve": holder, "mutate": mutate} {
		if r := <-c; r.status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, r.status, r.raw)
		}
	}
	r := <-eval
	if r.status != http.StatusOK {
		t.Fatalf("queued eval: status %d: %s", r.status, r.raw)
	}
	if got, want := decodeInto[EvalResponse](t, r.raw).Selected, []string{"v0", "v2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("pre-edit text queued behind its mutate: selected %v, want %v", got, want)
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
