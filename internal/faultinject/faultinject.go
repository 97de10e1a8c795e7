// Package faultinject provides deterministic, seeded fault injection
// for chaos-testing the solver pipeline. Code under test calls
// Check("point") at its stage boundaries and inside worker loops; a
// test (or the FAULTINJECT environment variable, for the cmd/* tools)
// arms specific points to fail on specific calls, or arms a seeded
// pseudo-random plan that fails each check with a fixed probability.
//
// The package is built for the chaos suite's three guarantees: injected
// failures surface as ordinary (stage-taggable) errors rather than
// panics, budgets/cancellation/recovery leave no goroutines behind, and
// a failed run never poisons the session caches. When nothing is armed,
// Check is a single atomic load — safe to leave in hot loops.
//
// Injection points in this repository (see DESIGN.md "Resilience"):
//
//	core.decompose core.normalize-tuple core.build-td core.compile core.eval
//	session.decompose session.normalize-tuple session.build-td
//	session.compile session.eval session.solver
//	decompose.min-fill decompose.min-degree decompose.greedy-bfs
//	dp.node dp.chain datalog.ground-rule datalog.stratum-task datalog.join
//	solver.introduce solver.forget solver.join solver.witness
//	game.expand game.memo
//
// Determinism: FailAt plans are exact — the nth Check of a point fails,
// independent of scheduling. Seeded plans hash (seed, point, per-point
// call index); with parallel workers the call index a given node
// observes may vary between runs, but the multiset of outcomes per
// point is fixed, which is what the chaos properties quantify over.
package faultinject

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrInjected is the sentinel under every injected fault; test with
// errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// Error reports one injected fault: which point fired and on which call.
type Error struct {
	Point string
	Call  int64
}

func (e *Error) Error() string {
	return fmt.Sprintf("faultinject: injected fault at %s (call %d)", e.Point, e.Call)
}

func (e *Error) Unwrap() error { return ErrInjected }

// armed short-circuits Check when no plan is active.
var armed atomic.Bool

var state struct {
	sync.Mutex
	failAt map[string]map[int64]bool // point → call numbers that fail
	always map[string]bool           // point → fail every call
	calls  map[string]*int64         // point → calls observed
	seeded bool
	seed   uint64
	rate   float64 // probability in [0,1] for seeded mode
	hits   []Error // faults fired since the last Reset, in order
}

// Reset disarms every plan and clears call counters and hit history.
// Tests must call it (usually via defer) before handing control back.
func Reset() {
	state.Lock()
	defer state.Unlock()
	state.failAt = nil
	state.always = nil
	state.calls = nil
	state.seeded = false
	state.hits = nil
	armed.Store(false)
}

func armLocked() {
	if state.calls == nil {
		state.calls = map[string]*int64{}
	}
	armed.Store(true)
}

// FailAt arms point to fail on its nth Check (1-based). Multiple calls
// accumulate; other calls at the point succeed.
func FailAt(point string, nth int64) {
	state.Lock()
	defer state.Unlock()
	if state.failAt == nil {
		state.failAt = map[string]map[int64]bool{}
	}
	if state.failAt[point] == nil {
		state.failAt[point] = map[int64]bool{}
	}
	state.failAt[point][nth] = true
	armLocked()
}

// FailAlways arms point to fail on every Check.
func FailAlways(point string) {
	state.Lock()
	defer state.Unlock()
	if state.always == nil {
		state.always = map[string]bool{}
	}
	state.always[point] = true
	armLocked()
}

// Seed arms the pseudo-random plan: every Check at every point fails
// with probability rate, deterministically derived from (seed, point,
// per-point call index) by a splitmix-style hash.
func Seed(seed int64, rate float64) {
	state.Lock()
	defer state.Unlock()
	state.seeded = true
	state.seed = uint64(seed)
	state.rate = rate
	armLocked()
}

// Hits returns the faults fired since the last Reset, in firing order.
func Hits() []Error {
	state.Lock()
	defer state.Unlock()
	return append([]Error(nil), state.hits...)
}

// Check reports whether an armed plan injects a fault at point for this
// call: nil when disarmed or the plan spares this call, a *Error
// (wrapping ErrInjected) when it fires. The disarmed fast path is one
// atomic load.
func Check(point string) error {
	if !armed.Load() {
		return nil
	}
	state.Lock()
	defer state.Unlock()
	if !armed.Load() { // Reset raced us between the load and the lock
		return nil
	}
	ctr := state.calls[point]
	if ctr == nil {
		ctr = new(int64)
		state.calls[point] = ctr
	}
	*ctr++
	call := *ctr
	fire := state.always[point] || state.failAt[point][call]
	if !fire && state.seeded {
		h := splitmix(state.seed ^ hashString(point) ^ uint64(call))
		// Top 53 bits as a uniform float in [0,1); rate 1 always fires.
		fire = float64(h>>11)/(1<<53) < state.rate
	}
	if !fire {
		return nil
	}
	err := &Error{Point: point, Call: call}
	state.hits = append(state.hits, *err)
	return err
}

// splitmix is the SplitMix64 finalizer: a bijective avalanche mix.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashString is FNV-1a, enough to decorrelate point names.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// InitFromSpec arms plans from a spec string, the format of the
// FAULTINJECT environment variable read by the cmd/* tools:
//
//	point@n        fail the nth call at point
//	point          fail every call at point
//	seed=S:rate=R  seeded plan (R a float in [0,1])
//
// Entries are separated by ';' or ','. An empty spec is a no-op.
func InitFromSpec(spec string) error {
	for _, entry := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ',' }) {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		if strings.HasPrefix(entry, "seed=") {
			var seed int64
			rate := 0.5
			for _, kv := range strings.Split(entry, ":") {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					return fmt.Errorf("faultinject: bad spec entry %q", entry)
				}
				switch k {
				case "seed":
					n, err := strconv.ParseInt(v, 10, 64)
					if err != nil {
						return fmt.Errorf("faultinject: bad seed in %q: %v", entry, err)
					}
					seed = n
				case "rate":
					f, err := strconv.ParseFloat(v, 64)
					if err != nil || f < 0 || f > 1 {
						return fmt.Errorf("faultinject: bad rate in %q", entry)
					}
					rate = f
				default:
					return fmt.Errorf("faultinject: unknown key %q in %q", k, entry)
				}
			}
			Seed(seed, rate)
			continue
		}
		if point, nth, ok := strings.Cut(entry, "@"); ok {
			n, err := strconv.ParseInt(nth, 10, 64)
			if err != nil || n < 1 {
				return fmt.Errorf("faultinject: bad call number in %q", entry)
			}
			FailAt(point, n)
			continue
		}
		FailAlways(entry)
	}
	return nil
}

// Armed reports whether any plan is active.
func Armed() bool { return armed.Load() }

// PointsSeen lists the points that observed at least one Check since the
// last Reset, sorted — a convenience for coverage assertions in tests.
func PointsSeen() []string {
	state.Lock()
	defer state.Unlock()
	out := make([]string, 0, len(state.calls))
	for p := range state.calls {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
