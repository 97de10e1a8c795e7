package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/overload"
	"repro/internal/session"
	"repro/internal/structure"
	"repro/internal/testutil/leak"
)

// postJSONResp is postJSON plus the response headers, for the tests
// asserting Retry-After.
func postJSONResp(t *testing.T, url string, body any, headers map[string]string) (int, http.Header, []byte) {
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
	return resp.StatusCode, resp.Header, out
}

// requireRetryAfter asserts the header carries a whole number of
// seconds >= 1, the documented floor.
func requireRetryAfter(t *testing.T, h http.Header) {
	t.Helper()
	ra := h.Get("Retry-After")
	if ra == "" {
		t.Fatal("missing Retry-After header on an overload rejection")
	}
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", ra)
	}
}

// TestAdmissionShed429 pins the limiter path: with one lane, no queue
// and a request gated in flight, the next request is shed with 429 +
// Retry-After and the cli overload code, and /statsz accounts the shed.
func TestAdmissionShed429(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Limiter: overload.LimiterConfig{Initial: 1, Min: 1, Max: 1, QueueCap: -1, LatencyTarget: -1},
	})
	entered := make(chan struct{})
	release := make(chan struct{})
	var gateOnce sync.Once
	s.testGate = func(context.Context, string) {
		gateOnce.Do(func() {
			close(entered)
			<-release
		})
	}
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		postJSON(t, ts.URL+"/eval", EvalRequest{Structure: pathStructure, Formula: "c(x)", Var: "x"}, nil)
	}()
	<-entered

	status, h, raw := postJSONResp(t, ts.URL+"/eval", EvalRequest{Structure: flatStructure, Formula: "c(x)", Var: "x"}, nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("shed request: status %d, body %s", status, raw)
	}
	requireRetryAfter(t, h)
	er := decodeInto[ErrorResponse](t, raw)
	if er.Code != 6 {
		t.Errorf("shed code = %d, want 6 (overload)", er.Code)
	}
	close(release)
	<-firstDone

	st := s.limiter.Stats()
	if st.Shed == 0 || st.ShedQueue == 0 {
		t.Errorf("limiter stats = %+v, want at least one queue-full shed", st)
	}
}

// TestAdmissionQueueAdmits pins the queue half of admission: with one
// lane but a queue, a second request waits for the slot instead of
// being shed, and both answer 200.
func TestAdmissionQueueAdmits(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Limiter: overload.LimiterConfig{Initial: 1, Min: 1, Max: 1, QueueCap: 4, LatencyTarget: -1},
	})
	entered := make(chan struct{})
	release := make(chan struct{})
	var gateOnce sync.Once
	s.testGate = func(context.Context, string) {
		gateOnce.Do(func() {
			close(entered)
			<-release
		})
	}
	var wg sync.WaitGroup
	statuses := make([]int, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		statuses[0], _ = postJSON(t, ts.URL+"/eval", EvalRequest{Structure: pathStructure, Formula: "c(x)", Var: "x"}, nil)
	}()
	<-entered
	wg.Add(1)
	go func() {
		defer wg.Done()
		statuses[1], _ = postJSON(t, ts.URL+"/eval", EvalRequest{Structure: flatStructure, Formula: "c(x)", Var: "x"}, nil)
	}()
	// Give the second request time to reach the queue, then open the
	// gate: the released slot must hand over to the queued waiter.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	for i, status := range statuses {
		if status != http.StatusOK {
			t.Errorf("request %d: status %d, want 200", i, status)
		}
	}
}

// TestBreakerCycle drives one structure's breaker through its full
// open → half-open → closed cycle with real requests: budget blowups
// open it, the open breaker fast-fails with 503 + Retry-After while a
// different structure is still served, and a post-cooldown probe closes
// it again.
func TestBreakerCycle(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Breaker: overload.BreakerConfig{Threshold: 2, Cooldown: 200 * time.Millisecond, ProbeSuccesses: 1},
	})
	snap := leak.Before()
	// Two distinct fresh formulas so neither answer is served from the
	// result cache (cache hits charge no budget and would not fail).
	for i := 0; i < 2; i++ {
		formula := "c(x) | c(x)"
		if i == 1 {
			formula = "c(x) | c(x) | c(x)"
		}
		status, raw := postJSON(t, ts.URL+"/eval", EvalRequest{Structure: pathStructure, Formula: formula, Var: "x"}, map[string]string{"X-Budget": "1"})
		if status != http.StatusTooManyRequests {
			t.Fatalf("poison request %d: status %d, body %s", i, status, raw)
		}
	}

	// Threshold reached: the structure's breaker is open.
	status, h, raw := postJSONResp(t, ts.URL+"/eval", EvalRequest{Structure: pathStructure, Formula: "c(x)", Var: "x"}, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("open breaker: status %d, body %s", status, raw)
	}
	requireRetryAfter(t, h)
	er := decodeInto[ErrorResponse](t, raw)
	if er.Code != 6 {
		t.Errorf("fast-fail code = %d, want 6 (overload)", er.Code)
	}

	// Per-structure isolation: a different structure is unaffected.
	status, raw = postJSON(t, ts.URL+"/eval", EvalRequest{Structure: flatStructure, Formula: "c(x)", Var: "x"}, nil)
	if status != http.StatusOK {
		t.Fatalf("other structure during open breaker: status %d, body %s", status, raw)
	}

	// After the cooldown a probe runs; its success closes the breaker.
	time.Sleep(250 * time.Millisecond)
	status, raw = postJSON(t, ts.URL+"/eval", EvalRequest{Structure: pathStructure, Formula: "c(x)", Var: "x"}, nil)
	if status != http.StatusOK {
		t.Fatalf("probe request: status %d, body %s", status, raw)
	}
	status, raw = postJSON(t, ts.URL+"/eval", EvalRequest{Structure: pathStructure, Formula: "c(x)", Var: "x"}, nil)
	if status != http.StatusOK {
		t.Fatalf("post-close request: status %d, body %s", status, raw)
	}

	bt := s.breakerTotals()
	if bt.Counters.Opened < 1 || bt.Counters.HalfOpens < 1 || bt.Counters.Closed < 1 || bt.Counters.FastFails < 1 {
		t.Errorf("breaker counters = %+v, want a full open → half-open → closed cycle", bt.Counters)
	}
	if bt.Open != 0 {
		t.Errorf("breakers open = %d, want 0 after the cycle", bt.Open)
	}
	http.DefaultClient.CloseIdleConnections()
	snap.Check(t)
}

// TestStatszOverloadFields pins the new /statsz sections: admission is
// always present, breakers aggregate the registry, watchdog appears
// only when armed.
func TestStatszOverloadFields(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/eval", EvalRequest{Structure: pathStructure, Formula: "c(x)", Var: "x"}, nil)
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	stats := decodeInto[StatszResponse](t, mustRead(t, resp.Body))
	if stats.Admission.Admitted < 1 {
		t.Errorf("admission.admitted = %d, want >= 1", stats.Admission.Admitted)
	}
	if stats.Admission.Limit < 1 {
		t.Errorf("admission.limit = %d, want >= 1", stats.Admission.Limit)
	}
	if stats.Breakers.Tracked < 1 || stats.Breakers.Closed < 1 {
		t.Errorf("breakers = %+v, want the structure's breaker tracked and closed", stats.Breakers)
	}
	if stats.Watchdog != nil {
		t.Errorf("watchdog = %+v, want absent when MemWatermark is 0", stats.Watchdog)
	}
}

// TestWatchdogShedsTiers arms the watchdog with a 1-byte watermark (any
// real heap exceeds it) and checks one pass walks the whole ladder:
// result caches shed, program cache emptied, half the sessions evicted,
// every tier's trip counted and visible on /statsz.
func TestWatchdogShedsTiers(t *testing.T) {
	s, ts := newTestServer(t, Config{MemWatermark: 1})
	for i, st := range []string{pathStructure, flatStructure} {
		status, raw := postJSON(t, ts.URL+"/eval", EvalRequest{Structure: st, Formula: "c(x)", Var: "x"}, nil)
		if status != http.StatusOK {
			t.Fatalf("warmup %d: status %d, body %s", i, status, raw)
		}
	}
	if s.progs.Len() == 0 {
		t.Fatal("warmup left the program cache empty")
	}
	if got := s.watchdog.CheckOnce(); got != 3 {
		t.Fatalf("CheckOnce shed %d tiers, want all 3 (heap can never fit under 1 byte)", got)
	}
	if n := s.progs.Len(); n != 0 {
		t.Errorf("program cache len = %d after shed, want 0", n)
	}
	remaining, evictions := s.sessions.Len(), s.sessions.Stats().Evictions
	if remaining != 1 || evictions != 1 {
		t.Errorf("sessions remaining = %d (evictions %d), want 1 of 2 evicted", remaining, evictions)
	}
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	stats := decodeInto[StatszResponse](t, mustRead(t, resp.Body))
	if stats.Watchdog == nil {
		t.Fatal("statsz watchdog section missing with MemWatermark set")
	}
	if stats.Watchdog.Trips < 1 || len(stats.Watchdog.Tiers) != 3 {
		t.Fatalf("watchdog stats = %+v, want >= 1 trip across 3 tiers", stats.Watchdog)
	}
	for _, tier := range stats.Watchdog.Tiers {
		if tier.Trips < 1 {
			t.Errorf("tier %q trips = %d, want >= 1", tier.Name, tier.Trips)
		}
	}
}

// TestHeaderCeilings pins the MaxBudget / MaxTimeout boundary: a header
// at the ceiling is served, one past it (or 0, meaning unlimited) is a
// 400 usage error.
func TestHeaderCeilings(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBudget: 1_000_000, MaxTimeout: time.Second})
	req := EvalRequest{Structure: pathStructure, Formula: "c(x)", Var: "x"}
	cases := []struct {
		name   string
		header map[string]string
		want   int
	}{
		{"budget_at_ceiling", map[string]string{"X-Budget": "1000000"}, http.StatusOK},
		{"budget_past_ceiling", map[string]string{"X-Budget": "1000001"}, http.StatusBadRequest},
		{"budget_zero_unlimited", map[string]string{"X-Budget": "0"}, http.StatusBadRequest},
		{"timeout_at_ceiling", map[string]string{"X-Timeout": "1s"}, http.StatusOK},
		{"timeout_past_ceiling", map[string]string{"X-Timeout": "1.001s"}, http.StatusBadRequest},
		{"timeout_zero_unlimited", map[string]string{"X-Timeout": "0s"}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, raw := postJSON(t, ts.URL+"/eval", req, tc.header)
			if status != tc.want {
				t.Fatalf("status %d, want %d; body %s", status, tc.want, raw)
			}
			if tc.want == http.StatusBadRequest {
				er := decodeInto[ErrorResponse](t, raw)
				if er.Code != 2 {
					t.Errorf("code = %d, want 2 (usage)", er.Code)
				}
			}
		})
	}
}

// TestHTTPServerHardening pins the listener timeouts: zero config
// resolves to the documented defaults, explicit values pass through,
// negative disables.
func TestHTTPServerHardening(t *testing.T) {
	hs := New(Config{}).newHTTPServer(context.Background())
	if hs.ReadHeaderTimeout != DefaultReadHeaderTimeout {
		t.Errorf("ReadHeaderTimeout = %v, want %v", hs.ReadHeaderTimeout, DefaultReadHeaderTimeout)
	}
	if hs.ReadTimeout != DefaultReadTimeout {
		t.Errorf("ReadTimeout = %v, want %v", hs.ReadTimeout, DefaultReadTimeout)
	}
	if hs.IdleTimeout != DefaultIdleTimeout {
		t.Errorf("IdleTimeout = %v, want %v", hs.IdleTimeout, DefaultIdleTimeout)
	}
	if hs.MaxHeaderBytes != DefaultMaxHeaderBytes {
		t.Errorf("MaxHeaderBytes = %d, want %d", hs.MaxHeaderBytes, DefaultMaxHeaderBytes)
	}
	hs = New(Config{
		ReadHeaderTimeout: 7 * time.Second,
		ReadTimeout:       -1,
		IdleTimeout:       time.Minute,
		MaxHeaderBytes:    4096,
	}).newHTTPServer(context.Background())
	if hs.ReadHeaderTimeout != 7*time.Second || hs.ReadTimeout != 0 || hs.IdleTimeout != time.Minute || hs.MaxHeaderBytes != 4096 {
		t.Errorf("custom config: got (%v, %v, %v, %d)", hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout, hs.MaxHeaderBytes)
	}
}

// TestSlowlorisDisconnected proves the hardening end to end: a client
// that sends half a request line and stalls is disconnected once the
// header timeout fires, instead of holding the connection forever.
func TestSlowlorisDisconnected(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{ReadHeaderTimeout: 100 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- Run(ctx, l, s, time.Second) }()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /eval HTTP/1.1\r\nHost: loris\r\nX-Tric")); err != nil {
		t.Fatal(err)
	}
	// The server may answer 408 before closing; what matters is that
	// the connection reaches EOF instead of idling past the timeout.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatal("connection still open 5s after the 100ms header timeout")
		}
		t.Fatalf("read: %v", err)
	}
	cancel()
	<-runDone
}

// TestDrainRacesMutate pins the SIGTERM-drain / POST-mutate race: a
// mutate held in flight when shutdown begins must complete, answer 200,
// and leave the registry keyed by the post-edit fingerprint — never a
// half-applied one.
func TestDrainRacesMutate(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	snap := leak.Before()
	s := New(Config{})
	entered := make(chan struct{})
	release := make(chan struct{})
	var gateOnce sync.Once
	s.testGate = func(_ context.Context, op string) {
		if op != "mutate" {
			return
		}
		gateOnce.Do(func() {
			close(entered)
			<-release
		})
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- Run(ctx, l, s, 10*time.Second) }()

	url := "http://" + l.Addr().String()
	var status int
	var raw []byte
	reqDone := make(chan struct{})
	go func() {
		defer close(reqDone)
		status, raw = postJSON(t, url+"/mutate", MutateRequest{
			Structure: pathStructure,
			Insert:    []MutateFact{{Pred: "c", Args: []string{"v3"}}},
		}, nil)
	}()
	<-entered
	cancel() // drain begins while the mutate is gated mid-flight
	select {
	case <-reqDone:
		t.Fatal("mutate finished before the gate released")
	case <-runDone:
		t.Fatal("Run returned while the mutate was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-reqDone
	if status != http.StatusOK {
		t.Fatalf("drained mutate: status %d, body %s", status, raw)
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("Run returned %v, want nil after clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after drain")
	}

	// The registry must be keyed by the post-edit fingerprint, which is
	// the response text's (what a follow-up client would send), and the
	// pre-edit key must be gone — a half-applied re-key would strand
	// either side.
	resp := decodeInto[MutateResponse](t, raw)
	post, err := structure.Parse(resp.Structure, nil)
	if err != nil {
		t.Fatalf("post-edit structure does not parse: %v", err)
	}
	newFP := session.Fingerprint(post)
	if fmt.Sprintf("%016x", newFP) != resp.Fingerprint {
		t.Fatalf("response fingerprint %s does not match post-edit text (%016x)", resp.Fingerprint, newFP)
	}
	pre, err := structure.Parse(pathStructure, nil)
	if err != nil {
		t.Fatal(err)
	}
	oldFP := session.Fingerprint(pre)
	_, hasNew := s.sessions.Peek(newFP)
	_, hasOld := s.sessions.Peek(oldFP)
	order, registered := len(s.sessions.Values()), s.sessions.Len()
	if !hasNew {
		t.Error("post-edit fingerprint not in the registry")
	}
	if hasOld {
		t.Error("pre-edit fingerprint still in the registry after re-key")
	}
	if order != registered {
		t.Errorf("registry order has %d entries for %d sessions — a half-applied re-key", order, registered)
	}
	// The acceptance bar for drain: the goroutine count returns to its
	// pre-Run baseline once Run has returned.
	http.DefaultClient.CloseIdleConnections()
	snap.Check(t)
}

func mustRead(t *testing.T, r io.Reader) []byte {
	t.Helper()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
