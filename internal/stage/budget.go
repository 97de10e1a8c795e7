package stage

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// ErrBudgetExceeded is the sentinel under every budget violation: test
// with errors.Is. The concrete error is a *BudgetError naming the
// exhausted dimension, and it arrives stage-tagged (wrapped in a
// *Error) like every other pipeline failure.
var ErrBudgetExceeded = errors.New("resource budget exceeded")

// Budget caps the three blowup points of the pipeline — datalog
// grounding (Theorem 4.4's |P|·|A| ground program), MSO k-type
// enumeration (non-elementary in the formula, Theorem 4.5) and DP table
// construction — plus a wall-clock deadline. The paper warns that the
// generic transformation is "very expensive"; a Budget turns the
// resulting OOM/hang failure modes into prompt, stage-tagged errors.
//
// A zero cap means "unlimited" for that dimension, and a nil *Budget is
// fully unlimited; every method is nil-safe. Consumption is tracked
// with atomic counters, so a Budget is safe to share between
// goroutines.
//
// Contract: a Budget is a SINGLE-RUN tally. The counters only ever go
// up, so attaching one Budget to a second run charges that run for the
// first run's consumption and silently tightens the effective caps
// until every run fails with a spurious *BudgetError (an HTTP server
// would turn these into spurious 429s). Hand each run a freshly minted
// Budget — servers mint one per request (see cmd/monadicd) — or call
// Reset between runs when deliberately reusing one value.
type Budget struct {
	// MaxGroundAtoms caps distinct ground intensional atoms interned
	// while grounding a quasi-guarded program.
	MaxGroundAtoms int64
	// MaxStates caps interned MSO k-types during compilation.
	MaxStates int64
	// MaxTableEntries caps the total states across all DP tables of one
	// solver.Up or solver.Down pass.
	MaxTableEntries int64
	// MaxStreamTuples caps the join steps the datalog engine's
	// semi-naive evaluation takes during one evaluation (one step per
	// candidate bound, test passed or derivation handed off): its work
	// meter. Charged in batches, so a violation may be detected up to
	// one poll interval (1024 steps per rule task) past the cap.
	MaxStreamTuples int64
	// MaxGamePositions caps interned game positions (behavior-tree
	// nodes) explored by the game-theoretic backend — that backend's
	// blowup point, playing the role MaxStates plays for the automaton
	// backend. Same contract as the other caps: the first charge past
	// the limit stops the run with a *BudgetError reporting
	// Used = Limit+1.
	MaxGamePositions int64
	// Deadline, when nonzero, bounds wall-clock time: the pipeline
	// derives a context deadline from it at the run boundary.
	Deadline time.Time

	groundAtoms   atomic.Int64
	states        atomic.Int64
	tableEntries  atomic.Int64
	streamTuples  atomic.Int64
	gamePositions atomic.Int64
}

// BudgetError reports which dimension of a Budget was exhausted. It
// unwraps to ErrBudgetExceeded.
type BudgetError struct {
	// Dimension is "ground-atoms", "states", "table-entries",
	// "stream-tuples" or "game-positions".
	Dimension string
	// Used and Limit are the consumption at the moment of violation.
	Used, Limit int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("%s: %s %d exceeds limit %d", ErrBudgetExceeded, e.Dimension, e.Used, e.Limit)
}

func (e *BudgetError) Unwrap() error { return ErrBudgetExceeded }

func charge(counter *atomic.Int64, limit int64, n int, dim string) error {
	if limit <= 0 {
		return nil
	}
	used := counter.Add(int64(n))
	if used > limit {
		return &BudgetError{Dimension: dim, Used: used, Limit: limit}
	}
	return nil
}

// AddGroundAtoms charges n ground atoms against the budget and returns
// a *BudgetError once the cap is exceeded. Nil-safe.
func (b *Budget) AddGroundAtoms(n int) error {
	if b == nil {
		return nil
	}
	return charge(&b.groundAtoms, b.MaxGroundAtoms, n, "ground-atoms")
}

// AddStates charges n interned types/states against the budget.
func (b *Budget) AddStates(n int) error {
	if b == nil {
		return nil
	}
	return charge(&b.states, b.MaxStates, n, "states")
}

// AddTableEntries charges n DP table entries against the budget.
func (b *Budget) AddTableEntries(n int) error {
	if b == nil {
		return nil
	}
	return charge(&b.tableEntries, b.MaxTableEntries, n, "table-entries")
}

// AddStreamTuples charges n join steps against the budget.
func (b *Budget) AddStreamTuples(n int64) error {
	if b == nil {
		return nil
	}
	if b.MaxStreamTuples <= 0 {
		return nil
	}
	used := b.streamTuples.Add(n)
	if used > b.MaxStreamTuples {
		return &BudgetError{Dimension: "stream-tuples", Used: used, Limit: b.MaxStreamTuples}
	}
	return nil
}

// AddGamePositions charges n interned game positions against the
// budget.
func (b *Budget) AddGamePositions(n int) error {
	if b == nil {
		return nil
	}
	return charge(&b.gamePositions, b.MaxGamePositions, n, "game-positions")
}

// GamePositionsUsed reports the game positions tallied so far. It is a
// separate accessor rather than a fourth Used() return so existing
// callers keep compiling.
func (b *Budget) GamePositionsUsed() int64 {
	if b == nil {
		return 0
	}
	return b.gamePositions.Load()
}

// StreamTuplesUsed reports the join steps tallied so far.
func (b *Budget) StreamTuplesUsed() int64 {
	if b == nil {
		return 0
	}
	return b.streamTuples.Load()
}

// CheckTableEntries reports whether extra further table entries on top
// of those already committed would exceed the cap, without committing
// them. The DP runners use it to poll mid-node, so a blowup inside one
// branch product aborts long before the node's full table exists.
func (b *Budget) CheckTableEntries(extra int) error {
	if b == nil || b.MaxTableEntries <= 0 {
		return nil
	}
	if used := b.tableEntries.Load() + int64(extra); used > b.MaxTableEntries {
		return &BudgetError{Dimension: "table-entries", Used: used, Limit: b.MaxTableEntries}
	}
	return nil
}

// Used reports the consumption tallied so far, for tests and traces.
func (b *Budget) Used() (groundAtoms, states, tableEntries int64) {
	if b == nil {
		return 0, 0, 0
	}
	return b.groundAtoms.Load(), b.states.Load(), b.tableEntries.Load()
}

// Reset zeroes the consumption counters so the Budget can meter a fresh
// run with the same caps.
func (b *Budget) Reset() {
	if b == nil {
		return
	}
	b.groundAtoms.Store(0)
	b.states.Store(0)
	b.tableEntries.Store(0)
	b.streamTuples.Store(0)
	b.gamePositions.Store(0)
}

// Uniform returns a Budget capping the materialization dimensions
// (ground atoms, states, table entries, game positions) at n (0 = nil,
// i.e. unlimited) — the shape behind the CLI tools' -budget flag.
// Stream tuples are a work meter, not a materialization, and stay
// unlimited here; set MaxStreamTuples explicitly to cap them.
func Uniform(n int64) *Budget {
	if n <= 0 {
		return nil
	}
	return &Budget{MaxGroundAtoms: n, MaxStates: n, MaxTableEntries: n, MaxGamePositions: n}
}

// budgetKey carries a *Budget through a context.
type budgetKey struct{}

// WithBudget attaches b to the context so the lower pipeline layers
// (datalog grounding, type enumeration, DP runners) can meter their
// work without widening every signature. A nil b returns ctx unchanged.
// When b carries a Deadline, the caller at the run boundary is
// responsible for deriving a context deadline (see ApplyDeadline).
func WithBudget(ctx context.Context, b *Budget) context.Context {
	if b == nil {
		return ctx
	}
	return context.WithValue(ctx, budgetKey{}, b)
}

// BudgetFrom extracts the budget attached by WithBudget, or nil.
func BudgetFrom(ctx context.Context) *Budget {
	b, _ := ctx.Value(budgetKey{}).(*Budget)
	return b
}

// ApplyDeadline derives a context honoring b.Deadline (if set and
// earlier than any existing deadline) and attaches b to the result. The
// returned cancel func must be called; it is a no-op closure when no
// deadline applies.
func ApplyDeadline(ctx context.Context, b *Budget) (context.Context, context.CancelFunc) {
	ctx = WithBudget(ctx, b)
	if b == nil || b.Deadline.IsZero() {
		return ctx, func() {}
	}
	if cur, ok := ctx.Deadline(); ok && cur.Before(b.Deadline) {
		return ctx, func() {}
	}
	return context.WithDeadline(ctx, b.Deadline)
}
