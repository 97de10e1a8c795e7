// Overload control for the decision service: every work endpoint
// (/eval, /solve, /batch, /mutate) passes through a per-structure
// circuit breaker and the shared adaptive admission limiter before any
// evaluation starts. /healthz and /statsz bypass both — observability
// must survive overload.
//
// Admission order is breaker first, limiter second: a breaker fast-fail
// is a per-structure verdict that costs one mutex acquire, so doomed
// requests never consume queue positions. When the limiter sheds a
// request that a half-open breaker had admitted as its probe, the probe
// slot is returned via Breaker.Cancel so the breaker is not wedged
// waiting for a Record that will never come.
package server

import (
	"context"
	"errors"

	"repro/internal/faultinject"
	"repro/internal/overload"
	"repro/internal/stage"
)

// Cost-model weights: the paper's linearity result makes structure text
// length a faithful proxy for evaluation cost, scaled by how much work
// the mode layers on top of one pass (solve modes run the DP over the
// whole decomposition; decision-mode eval compiles sentence programs).
// The limiter calibrates the absolute scale itself via its cost EWMA —
// only the ratios matter here.
const (
	costEval     = 1
	costDecision = 2
	costSolve    = 2
	costMutate   = 1
)

// estimateCost is the cheap pre-admission work estimate: structure size
// (fact-list text length) times the mode weight.
func estimateCost(structLen int, weight int64) int64 {
	c := int64(structLen) * weight
	if c < 1 {
		c = 1
	}
	return c
}

// breakerFor returns the breaker for one structure fingerprint,
// creating it under a FIFO cap mirroring the session registry's.
func (s *Server) breakerFor(fp uint64) *overload.Breaker {
	return s.breakers.GetOrAdd(fp, func() *overload.Breaker {
		return overload.NewBreaker(s.cfg.Breaker)
	})
}

// breakerFailure classifies an evaluation outcome for the breaker:
// capacity-poisoning failures are recovered panics, budget blowups and
// injected faults. Usage errors, deadline expiry and clean answers are
// successes — a client asking a malformed question must not open the
// breaker for everyone else using the same structure.
func breakerFailure(err error) bool {
	if err == nil {
		return false
	}
	var pe *stage.PanicError
	return errors.As(err, &pe) ||
		errors.Is(err, stage.ErrBudgetExceeded) ||
		errors.Is(err, faultinject.ErrInjected)
}

// admitOverload runs the overload-control gauntlet for a request
// touching the given structure fingerprints (one for /eval, /solve,
// /mutate; all of the batch's for /batch). On admission it returns a
// finish callback that MUST be called exactly once with the request's
// outcome per fingerprint — outcomeFor lets a batch record each
// structure's own verdict, so one poisoned structure does not open its
// batch-mates' breakers. finish releases the limiter slot and records
// every breaker. On rejection admitOverload returns the 429/503-mapped
// error with its Retry-After hint, leaving no state behind.
func (s *Server) admitOverload(ctx context.Context, fps []uint64, cost int64) (finish func(outcomeFor func(fp uint64) error), err error) {
	type admittedBreaker struct {
		fp uint64
		b  *overload.Breaker
	}
	breakers := make([]admittedBreaker, 0, len(fps))
	seen := make(map[*overload.Breaker]bool, len(fps))
	for _, fp := range fps {
		b := s.breakerFor(fp)
		if seen[b] {
			continue
		}
		seen[b] = true
		if err := b.Allow(); err != nil {
			for _, a := range breakers {
				a.b.Cancel()
			}
			return nil, err
		}
		breakers = append(breakers, admittedBreaker{fp: fp, b: b})
	}
	release, err := s.limiter.Acquire(ctx, cost)
	if err != nil {
		for _, a := range breakers {
			a.b.Cancel()
		}
		return nil, err
	}
	return func(outcomeFor func(fp uint64) error) {
		release()
		for _, a := range breakers {
			a.b.Record(breakerFailure(outcomeFor(a.fp)))
		}
	}, nil
}

// sameOutcome adapts a single-structure outcome to admitOverload's
// per-fingerprint finish callback.
func sameOutcome(err error) func(uint64) error {
	return func(uint64) error { return err }
}

// BreakerTotals is the /statsz aggregate over the per-fingerprint
// breaker registry: how many breakers are tracked, their current states
// and their summed lifetime counters.
type BreakerTotals struct {
	Tracked  int                      `json:"tracked"`
	Open     int                      `json:"open"`
	HalfOpen int                      `json:"half_open"`
	Closed   int                      `json:"closed"`
	Counters overload.BreakerCounters `json:"counters"`
}

// breakerTotals snapshots the breaker registry.
func (s *Server) breakerTotals() BreakerTotals {
	breakers := s.breakers.Values()
	t := BreakerTotals{Tracked: len(breakers)}
	for _, b := range breakers {
		switch b.State() {
		case overload.BreakerOpen:
			t.Open++
		case overload.BreakerHalfOpen:
			t.HalfOpen++
		default:
			t.Closed++
		}
		c := b.Counters()
		t.Counters.Opened += c.Opened
		t.Counters.HalfOpens += c.HalfOpens
		t.Counters.Closed += c.Closed
		t.Counters.FastFails += c.FastFails
	}
	return t
}

// watchdogTiers builds the memory watchdog's shedding ladder, cheapest
// first:
//
//  1. per-session result and solver caches (decompositions and
//     compiled programs survive; repeat queries recompute answers)
//  2. the shared program cache (recompilation on demand)
//  3. FIFO eviction of the older half of the session registry
//     (decompositions rebuilt on next touch — the most expensive loss)
func (s *Server) watchdogTiers() []overload.Tier {
	return []overload.Tier{
		{Name: "session-results", Shed: func() int {
			n := 0
			for _, sess := range s.sessions.Values() {
				n += sess.ShedResults()
			}
			return n
		}},
		{Name: "program-cache", Shed: s.progs.Shed},
		{Name: "session-evict", Shed: s.sessions.EvictOldestHalf},
	}
}
