package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/overload"
	"repro/internal/session"
	"repro/internal/structure"
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

// mutateOK posts req to /mutate and decodes its 200 answer.
func mutateOK(t *testing.T, url string, req MutateRequest) MutateResponse {
	t.Helper()
	status, raw := postJSON(t, url+"/mutate", req, nil)
	if status != http.StatusOK {
		t.Fatalf("mutate: status %d: %s", status, raw)
	}
	return decodeInto[MutateResponse](t, raw)
}

// answer is what /eval of c(x) on one text returns: the status, and
// the selection when the status is 200.
type answer struct {
	Status   int
	Selected []string
}

func colorAnswer(t *testing.T, url, text string) answer {
	t.Helper()
	status, raw := postJSON(t, url+"/eval", EvalRequest{Structure: text, Formula: "c(x)", Var: "x"}, nil)
	a := answer{Status: status}
	if status == http.StatusOK {
		a.Selected = decodeInto[EvalResponse](t, raw).Selected
	}
	return a
}

// answersAsFresh asserts that each text answers c(x) on the server at
// url as it does on a server that has seen no request before.
func answersAsFresh(t *testing.T, url string, texts ...string) {
	t.Helper()
	for _, text := range texts {
		_, fresh := newTestServer(t, Config{})
		got, want := colorAnswer(t, url, text), colorAnswer(t, fresh.URL, text)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("text %q answers %+v, a fresh server %+v", text, got, want)
		}
	}
}

// checkOneKeyPerSession asserts the registry invariant /mutate keeps:
// every key maps to a session whose current fingerprint is that key.
// The registry lists one value per key, so the invariant holds exactly
// when the values are distinct and each is filed under its fingerprint.
func checkOneKeyPerSession(t *testing.T, s *Server) {
	t.Helper()
	seen := map[*session.Session]bool{}
	for _, sess := range s.sessions.Values() {
		if seen[sess] {
			t.Fatal("a session is filed under two keys")
		}
		seen[sess] = true
		var fp uint64
		sess.View(func(st *structure.Structure) { fp = session.Fingerprint(st) })
		if got, ok := s.sessions.Peek(fp); !ok || got != sess {
			t.Fatalf("the session with fingerprint %016x is filed under another key", fp)
		}
	}
}

// textFingerprint is the fingerprint a request carrying text resolves to.
func textFingerprint(t *testing.T, text string) string {
	t.Helper()
	return fmt.Sprintf("%016x", session.Fingerprint(structure.MustParse(text, nil)))
}

// TestMutateTwoEditsLeaveNoAlias is the two-edit reproduction on the
// 4-path: /mutate adds c(v1); the original text with c(v1) appended
// describes the edited structure; a second /mutate, on the returned
// text, adds c(v3). The appended text must then answer for the structure
// it describes, [v0 v1 v2], not for the twice-edited session.
func TestMutateTwoEditsLeaveNoAlias(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	appended := pathStructure + "c(v1).\n"
	first := mutateOK(t, ts.URL, MutateRequest{Structure: pathStructure, Insert: []MutateFact{{Pred: "c", Args: []string{"v1"}}}})
	if got := colorAnswer(t, ts.URL, appended).Selected; !reflect.DeepEqual(got, []string{"v0", "v1", "v2"}) {
		t.Fatalf("appended text after the first edit: selected %v, want [v0 v1 v2]", got)
	}
	second := mutateOK(t, ts.URL, MutateRequest{Structure: first.Structure, Insert: []MutateFact{{Pred: "c", Args: []string{"v3"}}}})
	if got := colorAnswer(t, ts.URL, appended).Selected; !reflect.DeepEqual(got, []string{"v0", "v1", "v2"}) {
		t.Fatalf("appended text after the second edit: selected %v, want [v0 v1 v2]", got)
	}
	answersAsFresh(t, ts.URL, pathStructure, first.Structure, second.Structure)
	checkOneKeyPerSession(t, s)
	for _, text := range []string{first.Structure, appended} {
		if got, want := first.Fingerprint, textFingerprint(t, text); got != want {
			t.Errorf("first response fingerprint %s, text %q fingerprints %s", got, text, want)
		}
	}
}

// TestMutateConcurrentOnOnePreEditText sends two /mutates on one
// pre-edit text and holds both at the gate until both have taken the
// session, then lets them edit one after the other. The first edit
// moves the session off the text, so the second must bind the text
// again and edit the structure it describes: each response answers for
// its own text plus its own edit, as a fresh server does, whichever
// order the two ran in.
func TestMutateConcurrentOnOnePreEditText(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if a := colorAnswer(t, ts.URL, pathStructure); a.Status != http.StatusOK {
		t.Fatalf("warm-up eval: %+v", a)
	}
	var mu sync.Mutex
	arrivals := 0
	both := make(chan struct{})     // closed once both mutates hold the session
	goSecond := make(chan struct{}) // closed once the first mutate answered
	closeBoth := sync.OnceFunc(func() { close(both) })
	releaseSecond := sync.OnceFunc(func() { close(goSecond) })
	t.Cleanup(func() { closeBoth(); releaseSecond() }) // a failed test must not hold them
	s.testGate = func(_ context.Context, op string) {
		if op != "mutate" {
			return
		}
		mu.Lock()
		arrivals++
		k := arrivals
		mu.Unlock()
		if k == 2 {
			closeBoth()
		}
		<-both
		if k == 2 {
			<-goSecond
		}
	}
	type reply struct {
		added  string
		status int
		raw    []byte
		err    error
	}
	replies := make(chan reply, 2)
	for _, v := range []string{"v1", "v3"} {
		body, err := json.Marshal(MutateRequest{Structure: pathStructure, Insert: []MutateFact{{Pred: "c", Args: []string{v}}}})
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			resp, err := http.Post(ts.URL+"/mutate", "application/json", bytes.NewReader(body))
			if err != nil {
				replies <- reply{added: v, err: err}
				return
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			replies <- reply{v, resp.StatusCode, raw, err}
		}()
	}
	want := map[string][]string{"v1": {"v0", "v1", "v2"}, "v3": {"v0", "v2", "v3"}}
	var texts []string
	for range 2 {
		r := <-replies
		if r.err != nil || r.status != http.StatusOK {
			t.Fatalf("mutate adding c(%s): status %d, error %v: %s", r.added, r.status, r.err, r.raw)
		}
		text := decodeInto[MutateResponse](t, r.raw).Structure
		if got := colorAnswer(t, ts.URL, text).Selected; !reflect.DeepEqual(got, want[r.added]) {
			t.Errorf("response of the mutate adding c(%s): selected %v, want %v", r.added, got, want[r.added])
		}
		texts = append(texts, text)
		releaseSecond()
	}
	answersAsFresh(t, ts.URL, append(texts, pathStructure)...)
	checkOneKeyPerSession(t, s)
}

// TestMutateEmptiedPredicate removes every c fact. The text format
// cannot declare an empty predicate, so the response text names a
// structure over {edge} alone, with another fingerprint than the edited
// session's: it must answer c(x) as a fresh server does, not from the
// session whose signature still holds c.
func TestMutateEmptiedPredicate(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if a := colorAnswer(t, ts.URL, pathStructure); a.Status != http.StatusOK {
		t.Fatalf("warm-up eval: %+v", a)
	}
	mut := mutateOK(t, ts.URL, MutateRequest{Structure: pathStructure, Remove: []MutateFact{
		{Pred: "c", Args: []string{"v0"}},
		{Pred: "c", Args: []string{"v2"}},
	}})
	answersAsFresh(t, ts.URL, mut.Structure, pathStructure)
	checkOneKeyPerSession(t, s)
	if mut.Fingerprint == textFingerprint(t, mut.Structure) {
		t.Error("the response fingerprint is its text's, although the text lacks the emptied predicate")
	}
	var fp uint64
	if _, err := fmt.Sscanf(mut.Fingerprint, "%016x", &fp); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.sessions.Peek(fp); !ok {
		t.Errorf("no session is filed under the response fingerprint %s", mut.Fingerprint)
	}
}

// heldAcrossMutate posts body to path and holds the request at the test
// gate for op, right after it has bound its session, while a /mutate
// applies edit to the same structure. It then releases the request and
// returns its 200 reply.
func heldAcrossMutate(t *testing.T, op, path string, body any, edit MutateRequest) []byte {
	t.Helper()
	s, ts := newTestServer(t, Config{})
	entered, release := make(chan struct{}), make(chan struct{})
	enter, leave := sync.OnceFunc(func() { close(entered) }), sync.OnceFunc(func() { close(release) })
	t.Cleanup(leave) // a failed test must not hold the request
	s.testGate = func(_ context.Context, got string) {
		if got == op {
			enter()
			<-release
		}
	}
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	type reply struct {
		status int
		raw    []byte
		err    error
	}
	done := make(chan reply, 1)
	go func() {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			done <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		done <- reply{resp.StatusCode, out, err}
	}()
	select {
	case <-entered:
	case r := <-done:
		t.Fatalf("%s answered before it reached the gate: status %d, error %v: %s", path, r.status, r.err, r.raw)
	}
	mutateOK(t, ts.URL, edit)
	leave()
	r := <-done
	if r.err != nil || r.status != http.StatusOK {
		t.Fatalf("%s: status %d, error %v: %s", path, r.status, r.err, r.raw)
	}
	return r.raw
}

// addC1 colours v1 of the 4-path.
var addC1 = MutateRequest{Structure: pathStructure, Insert: []MutateFact{{Pred: "c", Args: []string{"v1"}}}}

// TestMutateAfterEvalBinds: an /eval that bound its session before a
// /mutate of its structure edited that session must answer for its own
// text, [v0 v2], not for the edited structure.
func TestMutateAfterEvalBinds(t *testing.T) {
	raw := heldAcrossMutate(t, "eval", "/eval", EvalRequest{Structure: pathStructure, Formula: "c(x)", Var: "x"}, addC1)
	if got, want := decodeInto[EvalResponse](t, raw).Selected, []string{"v0", "v2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("eval bound before the edit: selected %v, want %v", got, want)
	}
}

// TestMutateAfterBatchBinds is TestMutateAfterEvalBinds for /batch.
func TestMutateAfterBatchBinds(t *testing.T) {
	raw := heldAcrossMutate(t, "batch", "/batch", BatchRequest{
		Structures: []string{pathStructure},
		Queries:    []BatchQuery{{Structure: 0, Formula: "c(x)", Var: "x"}},
	}, addC1)
	r := decodeInto[BatchResponse](t, raw).Results[0]
	if got, want := r.Selected, []string{"v0", "v2"}; r.Status != http.StatusOK || !reflect.DeepEqual(got, want) {
		t.Fatalf("batch bound before the edit: status %d, selected %v, want 200 and %v", r.Status, got, want)
	}
}

// TestMutateAfterSolveBinds: a /solve that bound its session before a
// /mutate closed a triangle must count the 24 3-colourings of its own
// text, the 4-path, not the 12 of the edited structure.
func TestMutateAfterSolveBinds(t *testing.T) {
	raw := heldAcrossMutate(t, "solve", "/solve", SolveRequest{Structure: pathStructure, Problem: "threecol", Mode: "count"},
		MutateRequest{Structure: pathStructure, Insert: []MutateFact{{Pred: "edge", Args: []string{"v0", "v2"}}}})
	if got := decodeInto[SolveResponse](t, raw).Count; got != "24" {
		t.Fatalf("solve bound before the edit: count %s, want 24", got)
	}
}
