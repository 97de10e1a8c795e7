package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/session"
	"repro/internal/structure"
	"repro/internal/threecol"
)

// cycleStructure is a colored 4-cycle: treewidth 2. The /solve tests
// use it (the solver runs on the decomposition directly); /eval tests
// use the width-1 path or the width-0 flat structure, whose programs
// compile fastest. A query mentioning only c would compile over the
// reduct {c/1} here too; one quantifying over edge meets the compiler's
// type limit at any width.
const cycleStructure = `
dom v0 v1 v2 v3.
edge(v0, v1). edge(v1, v2). edge(v2, v3). edge(v3, v0).
c(v0). c(v2).
`

// pathStructure is a colored 4-path: treewidth 1, cheap to compile
// unary queries against.
const pathStructure = `
dom v0 v1 v2 v3.
edge(v0, v1). edge(v1, v2). edge(v2, v3).
c(v0). c(v2).
`

// flatStructure has no edges (treewidth 0) — cheap enough for
// quantified sentences in decision mode.
const flatStructure = `
dom v0 v1 v2 v3.
c(v0). c(v2).
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any, headers map[string]string) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func decodeInto[T any](t *testing.T, raw []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("decode %s: %v", raw, err)
	}
	return v
}

func TestEvalUnaryAndDecision(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	status, raw := postJSON(t, ts.URL+"/eval", EvalRequest{Structure: pathStructure, Formula: "c(x)", Var: "x"}, nil)
	if status != http.StatusOK {
		t.Fatalf("unary eval: status %d, body %s", status, raw)
	}
	resp := decodeInto[EvalResponse](t, raw)
	if len(resp.Selected) != 2 || resp.Selected[0] != "v0" || resp.Selected[1] != "v2" {
		t.Errorf("selected = %v, want [v0 v2]", resp.Selected)
	}
	if resp.Width != 1 {
		t.Errorf("width = %d, want 1 (a path)", resp.Width)
	}

	status, raw = postJSON(t, ts.URL+"/eval", EvalRequest{Structure: flatStructure, Formula: "exists x (c(x))"}, nil)
	if status != http.StatusOK {
		t.Fatalf("decision eval: status %d, body %s", status, raw)
	}
	resp = decodeInto[EvalResponse](t, raw)
	if resp.Holds == nil || !*resp.Holds {
		t.Errorf("holds = %v, want true", resp.Holds)
	}
}

// TestStatusTaxonomy pins the cli exit-taxonomy → HTTP mapping end to
// end: one request per class, including an armed fault injection for
// the 500.
func TestStatusTaxonomy(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	okReq := EvalRequest{Structure: pathStructure, Formula: "c(x)", Var: "x"}

	t.Run("ok_200", func(t *testing.T) {
		status, raw := postJSON(t, ts.URL+"/eval", okReq, nil)
		if status != http.StatusOK {
			t.Fatalf("status %d, body %s", status, raw)
		}
	})
	t.Run("usage_400_bad_body", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/eval", "application/json", strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	})
	t.Run("usage_400_bad_formula", func(t *testing.T) {
		status, raw := postJSON(t, ts.URL+"/eval", EvalRequest{Structure: pathStructure, Formula: "c(x) &"}, nil)
		if status != http.StatusBadRequest {
			t.Fatalf("status %d, body %s", status, raw)
		}
	})
	t.Run("usage_400_bad_header", func(t *testing.T) {
		status, raw := postJSON(t, ts.URL+"/eval", okReq, map[string]string{"X-Budget": "plenty"})
		if status != http.StatusBadRequest {
			t.Fatalf("status %d, body %s", status, raw)
		}
	})
	t.Run("budget_429", func(t *testing.T) {
		// A fresh formula: the ok_200 result is cached and a cache hit
		// charges no budget.
		req := EvalRequest{Structure: pathStructure, Formula: "c(x) | c(x)", Var: "x"}
		status, raw := postJSON(t, ts.URL+"/eval", req, map[string]string{"X-Budget": "1"})
		if status != http.StatusTooManyRequests {
			t.Fatalf("status %d, body %s", status, raw)
		}
		er := decodeInto[ErrorResponse](t, raw)
		if er.Code != 3 {
			t.Errorf("taxonomy code = %d, want 3 (budget)", er.Code)
		}
	})
	t.Run("timeout_504", func(t *testing.T) {
		status, raw := postJSON(t, ts.URL+"/eval", okReq, map[string]string{"X-Timeout": "1ns"})
		if status != http.StatusGatewayTimeout {
			t.Fatalf("status %d, body %s", status, raw)
		}
	})
	t.Run("fault_500", func(t *testing.T) {
		faultinject.FailAt("session.eval", 1)
		defer faultinject.Reset()
		// A fresh formula: cached results would answer without reaching
		// the eval stage where the fault is planted.
		status, raw := postJSON(t, ts.URL+"/eval", EvalRequest{Structure: pathStructure, Formula: "~c(x)", Var: "x"}, nil)
		if status != http.StatusInternalServerError {
			t.Fatalf("status %d, body %s", status, raw)
		}
		er := decodeInto[ErrorResponse](t, raw)
		if !strings.Contains(er.Error, "injected") {
			t.Errorf("error %q does not name the injected fault", er.Error)
		}
	})
	t.Run("method_405", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/eval")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status %d, want 405", resp.StatusCode)
		}
	})
}

// TestBadSignatureFormula400 pins that a formula that is not over the
// structure's signature — a predicate at another arity, or one the
// structure lacks — or whose free variables are not exactly var (none
// for a decision) is a usage error (400) on both backends, through
// /eval and /batch alike.
func TestBadSignatureFormula400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct{ formula, xVar, backend string }{
		{"edge(x)", "x", "automaton"},
		{"edge(x)", "x", "game"},
		{"d(x)", "x", "automaton"},
		{"d(x)", "x", "game"},
		{"exists y edge(x,y,y)", "x", "automaton"},
		{"exists y edge(x,y,y)", "x", "game"},
		{"c(y)", "x", "automaton"},
		{"c(y)", "x", "game"},
		{"x in Y", "x", "automaton"},
		{"x in Y", "x", "game"},
		{"c(x)", "", "automaton"},
		{"c(x)", "", "game"},
	} {
		header := map[string]string{"X-Backend": tc.backend}
		status, raw := postJSON(t, ts.URL+"/eval", EvalRequest{Structure: pathStructure, Formula: tc.formula, Var: tc.xVar}, header)
		if status != http.StatusBadRequest {
			t.Errorf("%s (var %q) on %s: /eval status %d (%s), want 400", tc.formula, tc.xVar, tc.backend, status, raw)
		}
		status, raw = postJSON(t, ts.URL+"/batch", BatchRequest{
			Structures: []string{pathStructure},
			Queries:    []BatchQuery{{Structure: 0, Formula: tc.formula, Var: tc.xVar}},
		}, header)
		if status != http.StatusOK {
			t.Fatalf("%s (var %q) on %s: /batch status %d: %s", tc.formula, tc.xVar, tc.backend, status, raw)
		}
		if got := decodeInto[BatchResponse](t, raw).Results[0].Status; got != http.StatusBadRequest {
			t.Errorf("%s (var %q) on %s: /batch query status %d, want 400", tc.formula, tc.xVar, tc.backend, got)
		}
	}
}

func TestSolveModes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		req   SolveRequest
		check func(t *testing.T, resp SolveResponse)
	}{
		{SolveRequest{Structure: cycleStructure, Problem: "threecol", Mode: "decide"}, func(t *testing.T, resp SolveResponse) {
			if resp.OK == nil || !*resp.OK {
				t.Errorf("threecol decide = %v, want true (even cycle)", resp.OK)
			}
		}},
		{SolveRequest{Structure: cycleStructure, Problem: "kcolor", K: 2, Mode: "decide"}, func(t *testing.T, resp SolveResponse) {
			if resp.OK == nil || !*resp.OK {
				t.Errorf("2-color decide = %v, want true (even cycle)", resp.OK)
			}
		}},
		{SolveRequest{Structure: cycleStructure, Problem: "vcover", Mode: "optimize"}, func(t *testing.T, resp SolveResponse) {
			if resp.Value == nil || *resp.Value != 2 {
				t.Errorf("min vertex cover = %v, want 2 (C4)", resp.Value)
			}
		}},
		{SolveRequest{Structure: cycleStructure, Problem: "domset", Mode: "optimize"}, func(t *testing.T, resp SolveResponse) {
			if resp.Value == nil || *resp.Value != 2 {
				t.Errorf("min dominating set = %v, want 2 (C4)", resp.Value)
			}
		}},
		{SolveRequest{Structure: cycleStructure, Problem: "wis", Mode: "optimize"}, func(t *testing.T, resp SolveResponse) {
			if resp.Value == nil || *resp.Value != 2 {
				t.Errorf("max independent set = %v, want 2 (C4)", resp.Value)
			}
		}},
		{SolveRequest{Structure: cycleStructure, Problem: "wis", Mode: "count"}, func(t *testing.T, resp SolveResponse) {
			if resp.Count != "7" {
				t.Errorf("independent sets = %q, want 7 (C4)", resp.Count)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.req.Problem+"_"+tc.req.Mode, func(t *testing.T) {
			status, raw := postJSON(t, ts.URL+"/solve", tc.req, nil)
			if status != http.StatusOK {
				t.Fatalf("status %d, body %s", status, raw)
			}
			tc.check(t, decodeInto[SolveResponse](t, raw))
		})
	}

	status, raw := postJSON(t, ts.URL+"/solve", SolveRequest{Structure: cycleStructure, Problem: "sat", Mode: "decide"}, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("unknown problem: status %d, body %s", status, raw)
	}
}

// TestSolveKColorBound: kcolor states pack 4 bits per bag position, so
// k runs up to threecol.MaxColors. The 4-path has k(k−1)³ proper
// k-colorings; k = MaxColors counts them exactly, and every k outside
// 1..MaxColors is refused with 400 in every mode rather than answered
// from overflowed states.
func TestSolveKColorBound(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, raw := postJSON(t, ts.URL+"/solve", SolveRequest{Structure: pathStructure, Problem: "kcolor", K: threecol.MaxColors, Mode: "count"}, nil)
	if status != http.StatusOK {
		t.Fatalf("k=%d: status %d, body %s", threecol.MaxColors, status, raw)
	}
	if got := decodeInto[SolveResponse](t, raw).Count; got != "54000" {
		t.Errorf("k=%d on the 4-path: %s colorings, want 54000", threecol.MaxColors, got)
	}
	for _, k := range []int{0, threecol.MaxColors + 1, 40} {
		for _, mode := range []string{"decide", "count", "optimize"} {
			status, raw := postJSON(t, ts.URL+"/solve", SolveRequest{Structure: pathStructure, Problem: "kcolor", K: k, Mode: mode}, nil)
			if status != http.StatusBadRequest {
				t.Errorf("k=%d %s: status %d, want 400; body %s", k, mode, status, raw)
			}
		}
	}
}

// TestSolveWISWeightsKeyTheCache: wis requests over one structure
// that differ only in their weights must not share a memoized outcome,
// while a repeat of the same weights does.
func TestSolveWISWeightsKeyTheCache(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		weights []int
		want    int
	}{
		{[]int{1, 1, 1, 1}, 2},
		{[]int{9, 1, 1, 1}, 10},
		{[]int{1, 1, 1, 1}, 2},
	} {
		req := SolveRequest{Structure: pathStructure, Problem: "wis", Mode: "optimize", Weights: tc.weights}
		status, raw := postJSON(t, ts.URL+"/solve", req, nil)
		if status != http.StatusOK {
			t.Fatalf("weights %v: status %d, body %s", tc.weights, status, raw)
		}
		got := decodeInto[SolveResponse](t, raw).Value
		if got == nil {
			t.Fatalf("weights %v: no value in %s", tc.weights, raw)
		}
		if *got != tc.want {
			t.Fatalf("weights %v: max weight %d, want %d", tc.weights, *got, tc.want)
		}
	}
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if tot := decodeInto[StatszResponse](t, raw).SessionTotals; tot.SolverSolves != 2 || tot.SolverCacheHits != 1 {
		t.Errorf("SolverSolves=%d SolverCacheHits=%d, want 2 and 1", tot.SolverSolves, tot.SolverCacheHits)
	}
}

// TestBatchSharesArtifacts pins the cache-hit accounting: k queries
// against one structure in a batch cost exactly one decomposition.
func TestBatchSharesArtifacts(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	queries := []string{"c(x)", "~c(x)", "c(x) | ~c(x)", "c(x) & c(x)", "c(x) -> c(x)"}
	req := BatchRequest{Structures: []string{pathStructure}}
	for _, q := range queries {
		req.Queries = append(req.Queries, BatchQuery{Structure: 0, Formula: q, Var: "x"})
	}
	// A repeated query exercises the result cache inside one batch.
	req.Queries = append(req.Queries, BatchQuery{Structure: 0, Formula: "c(x)", Var: "x"})

	status, raw := postJSON(t, ts.URL+"/batch", req, nil)
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, raw)
	}
	resp := decodeInto[BatchResponse](t, raw)
	if len(resp.Results) != len(queries)+1 {
		t.Fatalf("got %d results, want %d", len(resp.Results), len(queries)+1)
	}
	for i, res := range resp.Results {
		if res.Status != http.StatusOK {
			t.Errorf("query %d: status %d (%s)", i, res.Status, res.Error)
		}
	}
	if len(resp.Structures) != 1 {
		t.Fatalf("got %d structure stats, want 1", len(resp.Structures))
	}
	stat := resp.Structures[0]
	if stat.Decompositions != 1 {
		t.Errorf("Decompositions = %d, want 1 for %d queries on one structure", stat.Decompositions, len(req.Queries))
	}
	if stat.Evals != len(queries) {
		t.Errorf("Evals = %d, want %d", stat.Evals, len(queries))
	}
	if stat.ResultCacheHits != 1 {
		t.Errorf("ResultCacheHits = %d, want 1 (the repeated query)", stat.ResultCacheHits)
	}

	// Per-query failures don't fail the batch.
	req.Queries[2].Formula = "c(x) &"
	status, raw = postJSON(t, ts.URL+"/batch", req, nil)
	if status != http.StatusOK {
		t.Fatalf("batch with one bad query: status %d, body %s", status, raw)
	}
	resp = decodeInto[BatchResponse](t, raw)
	if resp.Results[2].Status != http.StatusBadRequest {
		t.Errorf("bad query status = %d, want 400", resp.Results[2].Status)
	}
	if resp.Results[3].Status != http.StatusOK {
		t.Errorf("query after bad one: status = %d, want 200", resp.Results[3].Status)
	}
}

// TestConcurrentSameStructure drives many concurrent clients at one
// structure; the session layer's single-flight must keep the artifact
// counters at one each, with zero errors.
func TestConcurrentSameStructure(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const clients = 32
	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, raw := postJSON(t, ts.URL+"/eval", EvalRequest{Structure: pathStructure, Formula: "c(x)", Var: "x"}, nil)
			if status != http.StatusOK {
				errs <- fmt.Sprintf("status %d: %s", status, raw)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if nSessions := s.sessions.Len(); nSessions != 1 {
		t.Errorf("sessions = %d, want 1 (one fingerprint)", nSessions)
	}
	status, raw := postJSON(t, ts.URL+"/eval", EvalRequest{Structure: pathStructure, Formula: "c(x)", Var: "x"}, nil)
	if status != http.StatusOK {
		t.Fatalf("warm follow-up: status %d, body %s", status, raw)
	}

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	stats := decodeInto[StatszResponse](t, raw)
	if stats.SessionTotals.Decompositions != 1 {
		t.Errorf("Decompositions = %d, want 1 across %d concurrent clients", stats.SessionTotals.Decompositions, clients)
	}
	if stats.SessionTotals.Evals != 1 {
		t.Errorf("Evals = %d, want 1 (one shared evaluation)", stats.SessionTotals.Evals)
	}
	if stats.SessionTotals.ResultCacheHits != clients {
		t.Errorf("ResultCacheHits = %d, want %d", stats.SessionTotals.ResultCacheHits, clients)
	}
}

// TestSessionRegistryBounded floods the registry with 10k distinct
// structures and asserts the FIFO cap holds.
func TestSessionRegistryBounded(t *testing.T) {
	s := New(Config{MaxSessions: 8})
	for i := 0; i < 10000; i++ {
		st, err := structure.Parse(fmt.Sprintf("dom e%d.", i), nil)
		if err != nil {
			t.Fatal(err)
		}
		s.sessionFor(session.Fingerprint(st), st)
	}
	n, order, evicted := s.sessions.Len(), len(s.sessions.Values()), s.sessions.Stats().Evictions
	if n != 8 || order != 8 {
		t.Errorf("registry holds %d sessions (%d in order), cap 8", n, order)
	}
	if evicted != 10000-8 {
		t.Errorf("evictions = %d, want %d", evicted, 10000-8)
	}
	// A resident structure is still served from the registry.
	st, err := structure.Parse("dom e9999.", nil)
	if err != nil {
		t.Fatal(err)
	}
	fp := session.Fingerprint(st)
	before := s.sessionFor(fp, st)
	if again := s.sessionFor(fp, st); again != before {
		t.Error("resident fingerprint re-created its session")
	}
}

func TestHealthzAndStatsz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	postJSON(t, ts.URL+"/eval", EvalRequest{Structure: pathStructure, Formula: "c(x)", Var: "x"}, nil)
	postJSON(t, ts.URL+"/eval", EvalRequest{Structure: pathStructure, Formula: "c(x) &"}, nil)

	r2, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(r2.Body)
	r2.Body.Close()
	stats := decodeInto[StatszResponse](t, raw)
	if stats.StatusCounts["200"] < 2 || stats.StatusCounts["400"] != 1 {
		t.Errorf("status counts = %v, want ≥2×200 and 1×400", stats.StatusCounts)
	}
	if stats.Sessions != 1 || stats.SessionCap != DefaultMaxSessions {
		t.Errorf("sessions %d/%d, want 1/%d", stats.Sessions, stats.SessionCap, DefaultMaxSessions)
	}
	if stats.ProgramCache.Cap == 0 {
		t.Error("program cache cap missing from statsz")
	}
}

// TestGracefulDrain pins the shutdown contract: a request in flight
// when shutdown begins completes with 200, then the listener refuses
// new connections and Run returns nil.
func TestGracefulDrain(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	entered := make(chan struct{})
	release := make(chan struct{})
	var gateOnce sync.Once
	s.testGate = func(context.Context, string) {
		gateOnce.Do(func() {
			close(entered)
			<-release
		})
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- Run(ctx, l, s, 10*time.Second) }()

	url := "http://" + l.Addr().String()
	reqDone := make(chan struct{})
	var status int
	var body []byte
	go func() {
		defer close(reqDone)
		status, body = postJSON(t, url+"/eval", EvalRequest{Structure: pathStructure, Formula: "c(x)", Var: "x"}, nil)
	}()

	<-entered
	cancel() // begin shutdown while the request is gated in flight
	// Shutdown must wait for the in-flight request, not abort it.
	select {
	case <-reqDone:
		t.Fatal("request finished before the gate released")
	case <-runDone:
		t.Fatal("Run returned while a request was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)

	<-reqDone
	if status != http.StatusOK {
		t.Fatalf("drained request: status %d, body %s", status, body)
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("Run returned %v, want nil after clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after drain")
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Error("listener still accepting after drain")
	}
}

// TestDrainGraceAborts pins the other half of the contract: a request
// that outlives the grace is aborted through context cancellation
// rather than abandoned, and Run still returns.
func TestDrainGraceAborts(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	entered := make(chan struct{})
	var gateOnce sync.Once
	// Gate on the request context itself: the handler stays in flight
	// until the expired grace cancels the base context, then evaluates
	// against the canceled context and answers 504 — a deterministic
	// stand-in for an evaluation too slow for the grace.
	s.testGate = func(ctx context.Context, _ string) {
		gateOnce.Do(func() {
			close(entered)
			<-ctx.Done()
		})
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- Run(ctx, l, s, 100*time.Millisecond) }()

	url := "http://" + l.Addr().String()
	reqDone := make(chan struct{})
	var status int
	go func() {
		defer close(reqDone)
		status, _ = postJSON(t, url+"/eval", EvalRequest{Structure: pathStructure, Formula: "c(x)", Var: "x"}, nil)
	}()

	<-entered
	cancel()
	var runErr error
	select {
	case runErr = <-runDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after grace expiry")
	}
	if runErr == nil {
		t.Error("Run = nil, want a drain error (request outlived the grace)")
	}
	select {
	case <-reqDone:
	case <-time.After(5 * time.Second):
		t.Fatal("aborted request never completed")
	}
	// The request context was canceled after the grace: the evaluation
	// aborts through the context plumbing and answers 504.
	if status != http.StatusGatewayTimeout {
		t.Errorf("aborted request status = %d, want 504", status)
	}
}

// TestBackendSelection pins the backend plumbing at the HTTP layer:
// X-Backend steers /eval and /batch, Config.Backend sets the default,
// unknown names are usage errors, and /statsz reports both the
// per-backend request counts and the sessions' per-backend evals.
func TestBackendSelection(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	okReq := EvalRequest{Structure: pathStructure, Formula: "c(x)", Var: "x"}

	status, raw := postJSON(t, ts.URL+"/eval", okReq, nil)
	if status != http.StatusOK {
		t.Fatalf("automaton eval: status %d, body %s", status, raw)
	}
	want := decodeInto[EvalResponse](t, raw)

	status, raw = postJSON(t, ts.URL+"/eval", okReq, map[string]string{"X-Backend": "game"})
	if status != http.StatusOK {
		t.Fatalf("game eval: status %d, body %s", status, raw)
	}
	got := decodeInto[EvalResponse](t, raw)
	if fmt.Sprint(got.Selected) != fmt.Sprint(want.Selected) {
		t.Errorf("game selected %v, automaton selected %v", got.Selected, want.Selected)
	}

	status, raw = postJSON(t, ts.URL+"/eval", okReq, map[string]string{"X-Backend": "quantum"})
	if status != http.StatusBadRequest {
		t.Fatalf("unknown backend: status %d, body %s", status, raw)
	}

	breq := BatchRequest{
		Structures: []string{pathStructure},
		Queries:    []BatchQuery{{Structure: 0, Formula: "~c(x)", Var: "x"}},
	}
	status, raw = postJSON(t, ts.URL+"/batch", breq, map[string]string{"X-Backend": "Game"})
	if status != http.StatusBadRequest {
		t.Fatalf("unknown backend on /batch: status %d, body %s", status, raw)
	}
	status, raw = postJSON(t, ts.URL+"/batch", breq, map[string]string{"X-Backend": "game"})
	if status != http.StatusOK {
		t.Fatalf("game batch: status %d, body %s", status, raw)
	}

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	stats := decodeInto[StatszResponse](t, raw)
	if stats.Backends["automaton"] != 1 || stats.Backends["game"] != 2 {
		t.Errorf("backend request counts = %v, want automaton:1 game:2 (the 400s are not counted)", stats.Backends)
	}
	by := stats.SessionTotals.EvalsByBackend
	if by["automaton"] != 1 || by["game"] != 2 {
		t.Errorf("EvalsByBackend = %v, want automaton:1 game:2", by)
	}
}

// TestBackendConfigDefault pins that Config.Backend changes the default
// for requests without an X-Backend header, is validated at request
// time, and is still overridable per request.
func TestBackendConfigDefault(t *testing.T) {
	s, ts := newTestServer(t, Config{Backend: "game"})
	okReq := EvalRequest{Structure: pathStructure, Formula: "c(x)", Var: "x"}

	status, raw := postJSON(t, ts.URL+"/eval", okReq, nil)
	if status != http.StatusOK {
		t.Fatalf("default-game eval: status %d, body %s", status, raw)
	}
	status, raw = postJSON(t, ts.URL+"/eval", okReq, map[string]string{"X-Backend": "automaton"})
	if status != http.StatusOK {
		t.Fatalf("override to automaton: status %d, body %s", status, raw)
	}
	s.mu.Lock()
	gameReqs, autoReqs := s.backendReqs["game"], s.backendReqs["automaton"]
	s.mu.Unlock()
	if gameReqs != 1 || autoReqs != 1 {
		t.Errorf("backendReqs = game:%d automaton:%d, want 1 and 1", gameReqs, autoReqs)
	}
}
