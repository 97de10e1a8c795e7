package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/overload"
	"repro/internal/server"
	"repro/internal/testutil/leak"
)

// Soak harness parameters: a deliberately tight server so a modest
// client herd is a genuine 2× overload, and enough distinct structures
// that the session registry churns (cold decompositions keep happening)
// for the whole run.
const (
	soakConcurrency = 8  // limiter Max: ceiling the AIMD may grow into
	soakSessions    = 8  // resident-session cap → constant FIFO eviction
	soakStructures  = 32 // distinct workload fingerprints (4× the cap)

	soakBreakerThreshold = 3
	soakBreakerCooldown  = time.Second

	// soakHeapBound is the "bounded heap" invariant: the sampled
	// HeapAlloc maximum must stay under it for the whole run.
	soakHeapBound = 256 << 20
	// soakMemWatermark arms the watchdog well under the bound so tiered
	// shedding gets a chance to act before the invariant is at risk.
	soakMemWatermark = 96 << 20

	// soakLatencyFloor: below this, the 2× admitted-p50 comparison is
	// scheduler noise, not a signal; the bound is max(2×unloaded, floor).
	soakLatencyFloor = 50 * time.Millisecond

	// soakOverload is the offered-load multiple over the calibrated
	// sequential throughput: "sustained traffic at ~2× capacity".
	soakOverload = 2.0

	// soakFaultRate is the seeded injection rate armed when the caller
	// (or the FAULTINJECT environment) has not armed a plan already.
	// The rate is per Check site and one request crosses hundreds of
	// sites (per-bag DP nodes, per-rule grounding), so even 0.0003
	// fails several percent of all requests.
	soakFaultSeed = 1
	soakFaultRate = 0.0003
)

// SoakResult is the BENCH_soak.json artifact: every overload-control
// invariant the CI soak-smoke job asserts, plus the raw counts behind
// them. Violations lists each failed invariant; Passed is their
// conjunction.
type SoakResult struct {
	Clients           int   `json:"clients"`
	DurationNS        int64 `json:"duration_ns"`
	TargetConcurrency int   `json:"target_concurrency"`
	Structures        int   `json:"structures"`
	OpIntervalNS      int64 `json:"op_interval_ns"`

	// Operation-level accounting (one op = one client call incl. its
	// internal retries).
	Ops          int `json:"ops"`
	OpsOK        int `json:"ops_ok"`
	OpsInjected  int `json:"ops_injected"`
	OpsExhausted int `json:"ops_retries_exhausted"`
	OpsOther     int `json:"ops_other_failures"`

	// Transport-level accounting (one attempt = one HTTP exchange).
	Attempts          int `json:"attempts"`
	OK200             int `json:"ok_200"`
	Shed429           int `json:"shed_429"`
	Budget429         int `json:"budget_429"`
	Breaker503        int `json:"breaker_503"`
	Injected5xx       int `json:"injected_5xx"`
	NonInjected5xx    int `json:"non_injected_5xx"`
	MissingRetryAfter int `json:"missing_retry_after"`
	OtherStatus       int `json:"other_status"`

	// Admitted-request latency over the /eval SLO class: p50 of
	// 200-answered /eval exchanges, loaded vs a single-client
	// calibration pass over the same op mix. The other op classes are
	// orders of magnitude apart (sub-ms solves vs 100ms+ cold batch
	// evals), so a whole-mix percentile would sit on the knife edge
	// between the modes and measure composition, not latency.
	UnloadedP50NS  int64 `json:"unloaded_eval_p50_ns"`
	LoadedP50NS    int64 `json:"loaded_eval_p50_ns"`
	LoadedP99NS    int64 `json:"loaded_eval_p99_ns"`
	LatencyBoundNS int64 `json:"latency_bound_ns"`

	// Self-healing evidence.
	BreakerCycles  int `json:"breaker_cycles"`
	FaultsInjected int `json:"faults_injected"`

	HeapMaxBytes   uint64 `json:"heap_max_bytes"`
	HeapBoundBytes uint64 `json:"heap_bound_bytes"`

	GoroutinesBefore int  `json:"goroutines_before"`
	GoroutinesAfter  int  `json:"goroutines_after"`
	GoroutineLeak    bool `json:"goroutine_leak"`

	Drained   bool `json:"drained"`
	Converged bool `json:"converged"`

	Statsz *server.StatszResponse `json:"statsz,omitempty"`

	Violations []string `json:"violations"`
	Passed     bool     `json:"passed"`
}

// soakCounts is the transport-level tally shared by every client in the
// run: statuses, Retry-After presence on overload answers, and the
// latency of each admitted (200) exchange.
type soakCounts struct {
	mu                sync.Mutex
	attempts          int
	ok200             int
	shed429           int
	budget429         int
	breaker503        int
	injected5xx       int
	nonInjected5xx    int
	missingRetryAfter int
	otherStatus       int
	latencies         []int64
}

// countingTransport classifies every HTTP exchange into the soak's
// invariant buckets. Non-200 bodies are sniffed (and restored) to tell
// a budget 429 from an admission shed and an injected 500 from a real
// one — the same ErrorResponse the client decodes.
type countingTransport struct {
	base   http.RoundTripper
	counts *soakCounts
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(t0)
	c := t.counts
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempts++
	if resp.StatusCode == http.StatusOK {
		c.ok200++
		if req.URL.Path == "/eval" {
			c.latencies = append(c.latencies, elapsed.Nanoseconds())
		}
		return resp, nil
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		body = nil
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	var er server.ErrorResponse
	_ = json.Unmarshal(body, &er)
	hasRetryAfter := resp.Header.Get("Retry-After") != ""
	switch {
	case resp.StatusCode == http.StatusTooManyRequests && er.Code == 3:
		// A per-request budget blowup: the client's own doing (the
		// poison driver), not an overload rejection — exempt from the
		// Retry-After invariant.
		c.budget429++
	case resp.StatusCode == http.StatusTooManyRequests:
		c.shed429++
		if !hasRetryAfter {
			c.missingRetryAfter++
		}
	case resp.StatusCode == http.StatusServiceUnavailable:
		c.breaker503++
		if !hasRetryAfter {
			c.missingRetryAfter++
		}
	case resp.StatusCode >= 500:
		if strings.Contains(er.Error, "injected") {
			c.injected5xx++
		} else {
			c.nonInjected5xx++
		}
	default:
		c.otherStatus++
	}
	return resp, nil
}

// p50 of a latency sample (destructive sort); 0 when empty.
func percentileNS(lat []int64, p float64) int64 {
	if len(lat) == 0 {
		return 0
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	return lat[int(p*float64(len(lat)-1))]
}

// coloredPathText is a soak structure in the fact-list text the server
// parses: an n-element path over edge/2 (treewidth 1), with c/1 on every
// other element.
func coloredPathText(n int) string {
	var b bytes.Buffer
	b.WriteString("dom")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, " v%d", i)
	}
	b.WriteString(".\n")
	for i := 0; i+1 < n; i++ {
		fmt.Fprintf(&b, "edge(v%d, v%d).\n", i, i+1)
	}
	for i := 0; i < n; i += 2 {
		fmt.Fprintf(&b, "c(v%d).\n", i)
	}
	return b.String()
}

// soakOp issues the iter'th operation of one worker: a deterministic
// mixed workload over the shared structure pool, weighted so the
// latency profile the limiter sees is dominated by the cold-eval class
// (sub-ms solver hits would dilute the latency EWMA and over-admit).
// Mutate re-keys the session to the post-edit fingerprint, so the next
// touch of the original text is a cold rebuild — deliberate churn.
// c sends every op on the server's default backend; game, which sends
// X-Backend: game, carries the game-backend batch, so the game path's
// fault points fire under the same overload.
func soakOp(ctx context.Context, c, game *client.Client, structs []string, worker, iter int) error {
	st := structs[(worker*31+iter)%len(structs)]
	var err error
	switch [8]int{0, 1, 0, 2, 0, 3, 4, 2}[iter%8] {
	case 0: // eval: the SLO class
		_, err = c.Eval(ctx, server.EvalRequest{Structure: st, Formula: "c(x)", Var: "x"})
	case 1: // batch: one query, same weight class as eval
		_, err = c.Batch(ctx, server.BatchRequest{
			Structures: []string{st},
			Queries:    []server.BatchQuery{{Structure: 0, Formula: "c(x) | c(x)", Var: "x"}},
		})
	case 2: // mutate: churn — evicts and re-keys
		_, err = c.Mutate(ctx, server.MutateRequest{
			Structure: st,
			Insert:    []server.MutateFact{{Pred: "c", Args: []string{"v3"}}},
		})
	case 3: // solve: the fast class, deliberately rare
		_, err = c.Solve(ctx, server.SolveRequest{Structure: st, Problem: "vcover", Mode: "optimize"})
	case 4: // batch on the game backend: same weight class as eval
		_, err = game.Batch(ctx, server.BatchRequest{
			Structures: []string{st},
			Queries:    []server.BatchQuery{{Structure: 0, Formula: "c(x)", Var: "x"}},
		})
	}
	return err
}

// poisonFormula mints a formula never used by the workload mix (which
// stays at 1–2 disjuncts), so every budget-1 request charges real work
// instead of hitting the result cache, and each blowup counts as a
// breaker failure.
func poisonFormula(variant int) string {
	parts := make([]string, 4+variant%64)
	for i := range parts {
		parts[i] = "c(x)"
	}
	return strings.Join(parts, " | ")
}

// runPoison drives the poison structure through full breaker cycles
// until the deadline: budget-1 requests with fresh formulas blow their
// budget until the breaker opens (503 observed), then — after the
// cooldown — normal-budget probes close it again (200 observed). Each
// observed open→probe→200 sequence counts one cycle.
func runPoison(ctx context.Context, poison, probe *client.Client, st string, deadline time.Time) int {
	cycles := 0
	variant := 0
	for time.Now().Before(deadline) && ctx.Err() == nil {
		opened := false
		for i := 0; i < 50 && time.Now().Before(deadline); i++ {
			variant++
			_, err := poison.Eval(ctx, server.EvalRequest{Structure: st, Formula: poisonFormula(variant), Var: "x"})
			var apiErr *client.APIError
			if errors.As(err, &apiErr) && apiErr.Status == http.StatusServiceUnavailable {
				opened = true
				break
			}
		}
		if !opened {
			return cycles
		}
		// Let the cooldown elapse, then probe until the breaker closes.
		// Injected faults can fail a probe and re-open it; keep probing —
		// that re-heal is exactly what the soak is for.
		sleepUntil(ctx, time.Now().Add(soakBreakerCooldown+50*time.Millisecond), deadline)
		for time.Now().Before(deadline) && ctx.Err() == nil {
			if _, err := probe.Eval(ctx, server.EvalRequest{Structure: st, Formula: "c(x)", Var: "x"}); err == nil {
				cycles++
				break
			}
			// A failed probe is either a limiter shed (retry soon — a
			// shed is cheap) or a re-open after an injected fault (the
			// next window is a cooldown away); 150ms splits the
			// difference without hammering.
			sleepUntil(ctx, time.Now().Add(150*time.Millisecond), deadline)
		}
	}
	return cycles
}

func sleepUntil(ctx context.Context, t, deadline time.Time) {
	if t.After(deadline) {
		t = deadline
	}
	d := time.Until(t)
	if d <= 0 {
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
	}
}

// Soak runs the sustained-overload chaos experiment: clients workers of
// mixed traffic against an in-process monadicd sized for ~half that
// concurrency, with fault injection armed, a poison driver forcing
// breaker cycles, and a heap sampler — then shuts down and checks that
// everything healed: no unexplained 5xx, every overload rejection
// carried Retry-After, at least one full breaker cycle, admitted-p50
// within bound, heap bounded, goroutines back to baseline.
func Soak(ctx context.Context, clients int, dur time.Duration) (SoakResult, error) {
	res := SoakResult{
		Clients:           clients,
		DurationNS:        dur.Nanoseconds(),
		TargetConcurrency: soakConcurrency,
		Structures:        soakStructures,
		HeapBoundBytes:    soakHeapBound,
	}
	if clients <= 0 || dur <= 0 {
		return res, fmt.Errorf("bench: soak needs positive clients and duration, got %d over %v", clients, dur)
	}

	// Distinct fingerprints with a tight size band (cold-eval cost grows
	// with n; a wide band makes the p50 comparison composition-bound):
	// sizes 10..25, each in a base and an extra-color variant.
	structs := make([]string, soakStructures)
	for i := range structs {
		structs[i] = coloredPathText(10 + i/2)
		if i%2 == 1 {
			structs[i] += "c(v1).\n"
		}
	}
	poisonStruct := coloredPathText(9) // distinct fingerprint from every workload structure

	snap := leak.Before()
	res.GoroutinesBefore = int(snap)

	base := &http.Transport{
		MaxIdleConns:        clients + 4,
		MaxIdleConnsPerHost: clients + 4,
	}
	defer base.CloseIdleConnections()
	newClient := func(url string, counts *soakCounts, attempts int) *client.Client {
		c := client.New(url)
		c.HTTP = &http.Client{Transport: &countingTransport{base: base, counts: counts}}
		c.MaxAttempts = attempts
		c.BaseBackoff = 25 * time.Millisecond
		c.MaxBackoff = time.Second
		return c
	}
	newGameClient := func(url string, counts *soakCounts, attempts int) *client.Client {
		c := newClient(url, counts, attempts)
		c.Backend = core.GameBackend
		return c
	}

	// Calibration: one sequential client, same op mix and session cap,
	// against a throwaway server — yielding the unloaded /eval p50 the
	// loaded run is held to and the sequential throughput that defines
	// "capacity". Failures (env-armed fault plans fire here too) are
	// skipped; only admitted latencies matter.
	calL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	calSrv := server.New(server.Config{MaxSessions: soakSessions})
	calCtx, calStop := context.WithCancel(ctx)
	calDone := make(chan error, 1)
	go func() { calDone <- server.Run(calCtx, calL, calSrv, 30*time.Second) }()
	calCounts := &soakCounts{}
	cal := newClient("http://"+calL.Addr().String(), calCounts, 1)
	calGame := newGameClient("http://"+calL.Addr().String(), calCounts, 1)
	calOps := 4 * soakStructures
	calStart := time.Now()
	for iter := 0; iter < calOps; iter++ {
		if ctx.Err() != nil {
			calStop()
			<-calDone
			return res, ctx.Err()
		}
		_ = soakOp(ctx, cal, calGame, structs, 0, iter)
	}
	calWall := time.Since(calStart)
	calStop()
	if err := <-calDone; err != nil {
		return res, fmt.Errorf("bench: calibration server: %w", err)
	}
	res.UnloadedP50NS = percentileNS(calCounts.latencies, 0.50)
	// The latency bound the run is held to — and, deliberately, the
	// AIMD target the limiter is given: the soak asserts the limiter
	// delivered the SLO it was configured with.
	res.LatencyBoundNS = 2 * res.UnloadedP50NS
	if floor := soakLatencyFloor.Nanoseconds(); res.LatencyBoundNS < floor {
		res.LatencyBoundNS = floor
	}
	// Offered load: soakOverload × the sequential op rate, spread over
	// the herd — each worker paces its ops on a fixed interval, falling
	// behind (rather than bursting) when an op or its retries run long.
	opInterval := time.Duration(float64(calWall) * float64(clients) / (float64(calOps) * soakOverload))
	res.OpIntervalNS = opInterval.Nanoseconds()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	srv := server.New(server.Config{
		MaxSessions: soakSessions,
		// Start the limit at 1 and let AIMD grow it: on a small machine
		// concurrent CPU-bound evals inflate each other's latency, and
		// discovering the sustainable concurrency is the limiter's job —
		// the soak asserts the outcome (admitted p50 within the bound),
		// not a preconceived limit. The AIMD setpoint is a third of the
		// bound: the setpoint is where the EWMA settles, the EWMA is
		// diluted by the sub-ms op classes (it reads well under the eval
		// p50) and lags behind load spikes, so aiming at the bound
		// itself — or even half of it — parks the eval p50 on the knife
		// edge. The cost is a few more sheds, which the retrying client
		// absorbs. The queue is disabled (shed, don't wait):
		// under sustained overload any FIFO wait adds a full service
		// time ahead of every admitted request, busting a latency SLO
		// that shedding keeps for free — the retrying client turns
		// those sheds into later capacity.
		Limiter: overload.LimiterConfig{
			Initial:       1,
			Min:           1,
			Max:           soakConcurrency,
			QueueCap:      -1,
			LatencyTarget: time.Duration(res.LatencyBoundNS / 3),
		},
		Breaker: overload.BreakerConfig{
			Threshold:      soakBreakerThreshold,
			Cooldown:       soakBreakerCooldown,
			ProbeSuccesses: 1,
		},
		MemWatermark: soakMemWatermark,
	})
	runCtx, stop := context.WithCancel(ctx)
	defer stop()
	runDone := make(chan error, 1)
	go func() { runDone <- server.Run(runCtx, l, srv, 30*time.Second) }()
	url := "http://" + l.Addr().String()

	// Arm fault injection unless the caller (FAULTINJECT) already did.
	if !faultinject.Armed() {
		faultinject.Seed(soakFaultSeed, soakFaultRate)
		defer faultinject.Reset()
	}

	// Heap sampler: max observed HeapAlloc over the load phase.
	var heapMax uint64
	samplerDone := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > heapMax {
				heapMax = ms.HeapAlloc
			}
			select {
			case <-samplerDone:
				return
			case <-time.After(25 * time.Millisecond):
			}
		}
	}()

	// Load phase: the herd, plus the poison driver.
	counts := &soakCounts{}
	deadline := time.Now().Add(dur)
	var opMu, vioMu sync.Mutex
	var violations []string
	addViolation := func(format string, args ...any) {
		vioMu.Lock()
		if len(violations) < 8 {
			violations = append(violations, fmt.Sprintf(format, args...))
		}
		vioMu.Unlock()
	}
	var ops, opsOK, opsInjected, opsExhausted, opsOther int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient(url, counts, 4)
			game := newGameClient(url, counts, 4)
			// Stagger starts across one interval so the herd offers a
			// steady rate instead of synchronized bursts.
			next := time.Now().Add(opInterval * time.Duration(w) / time.Duration(clients))
			sleepUntil(ctx, next, deadline)
			for iter := 0; time.Now().Before(deadline) && ctx.Err() == nil; iter++ {
				err := soakOp(ctx, c, game, structs, w, iter)
				next = next.Add(opInterval)
				sleepUntil(ctx, next, deadline)
				opMu.Lock()
				ops++
				switch {
				case err == nil:
					opsOK++
				case errors.Is(err, client.ErrRetriesExhausted):
					// Allowed: the retry budget is the convergence
					// guarantee — exhausting it is giving up cleanly.
					opsExhausted++
				default:
					var apiErr *client.APIError
					if errors.As(err, &apiErr) && apiErr.Status >= 500 && strings.Contains(apiErr.Message, "injected") {
						opsInjected++
					} else if ctx.Err() == nil {
						opsOther++
						addViolation("worker %d op %d: %v", w, iter, err)
					}
				}
				opMu.Unlock()
			}
		}(w)
	}
	poisonCycles := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		poison := newClient(url, counts, 1)
		poison.Budget = 1
		probe := newClient(url, counts, 1)
		poisonCycles = runPoison(ctx, poison, probe, poisonStruct, deadline)
	}()
	wg.Wait()
	res.Converged = true // every worker returned; none hung on a retry loop

	close(samplerDone)
	samplerWG.Wait()
	res.HeapMaxBytes = heapMax

	// Server-side truth before shutdown.
	statsClient := newClient(url, &soakCounts{}, 1)
	if st, err := statsClient.Statsz(ctx); err == nil {
		res.Statsz = st
	}

	stop()
	drainErr := <-runDone
	res.Drained = drainErr == nil && ctx.Err() == nil
	base.CloseIdleConnections()

	settled, after := snap.Settled(leak.DefaultSettle)
	res.GoroutinesAfter = after
	res.GoroutineLeak = !settled

	res.Ops = int(ops)
	res.OpsOK = int(opsOK)
	res.OpsInjected = int(opsInjected)
	res.OpsExhausted = int(opsExhausted)
	res.OpsOther = int(opsOther)
	res.BreakerCycles = poisonCycles
	res.FaultsInjected = len(faultinject.Hits())

	counts.mu.Lock()
	res.Attempts = counts.attempts
	res.OK200 = counts.ok200
	res.Shed429 = counts.shed429
	res.Budget429 = counts.budget429
	res.Breaker503 = counts.breaker503
	res.Injected5xx = counts.injected5xx
	res.NonInjected5xx = counts.nonInjected5xx
	res.MissingRetryAfter = counts.missingRetryAfter
	res.OtherStatus = counts.otherStatus
	lat := counts.latencies
	counts.mu.Unlock()
	res.LoadedP50NS = percentileNS(lat, 0.50)
	res.LoadedP99NS = percentileNS(lat, 0.99)

	res.Violations = violations
	res.evaluate()
	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("bench: soak aborted: %w", err)
	}
	return res, nil
}

// evaluate checks every soak invariant, filling Violations and Passed.
func (r *SoakResult) evaluate() {
	add := func(format string, args ...any) {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}
	if r.OpsOK == 0 {
		add("no operation succeeded")
	}
	if r.OpsOther > 0 {
		add("%d operations failed outside the allowed classes", r.OpsOther)
	}
	if r.NonInjected5xx > 0 {
		add("%d non-injected 5xx answers", r.NonInjected5xx)
	}
	if r.MissingRetryAfter > 0 {
		add("%d overload rejections missing Retry-After", r.MissingRetryAfter)
	}
	if r.Shed429+r.Breaker503 == 0 {
		add("overload path never exercised: no 429 shed or 503 fast-fail observed")
	}
	if r.BreakerCycles < 1 {
		add("no full breaker open→half-open→close cycle observed by the driver")
	}
	if r.Statsz != nil {
		c := r.Statsz.Breakers.Counters
		if c.Opened < 1 || c.HalfOpens < 1 || c.Closed < 1 {
			add("server breaker counters incomplete: opened=%d half_opens=%d closed=%d",
				c.Opened, c.HalfOpens, c.Closed)
		}
	} else {
		add("no /statsz snapshot captured")
	}
	if r.GoroutineLeak {
		add("goroutine leak: %d before, %d after", r.GoroutinesBefore, r.GoroutinesAfter)
	}
	if r.HeapMaxBytes >= r.HeapBoundBytes {
		add("heap unbounded: max %d B >= bound %d B", r.HeapMaxBytes, r.HeapBoundBytes)
	}
	if !r.Drained {
		add("server did not drain cleanly")
	}
	if !r.Converged {
		add("workers did not all converge")
	}
	if r.LatencyBoundNS == 0 {
		r.LatencyBoundNS = 2 * r.UnloadedP50NS
		if floor := soakLatencyFloor.Nanoseconds(); r.LatencyBoundNS < floor {
			r.LatencyBoundNS = floor
		}
	}
	if r.LoadedP50NS > r.LatencyBoundNS {
		add("admitted p50 %v exceeds bound %v (unloaded p50 %v)",
			time.Duration(r.LoadedP50NS), time.Duration(r.LatencyBoundNS), time.Duration(r.UnloadedP50NS))
	}
	r.Passed = len(r.Violations) == 0
}
