// Package stage defines the stage vocabulary of the Corollary 4.6
// pipeline (decompose → normalize → build τ_td → compile → evaluate)
// together with a stage-tagged error taxonomy and a lightweight
// per-stage trace. It is a leaf package: both internal/core and
// internal/session import it, so neither needs to import the other to
// agree on stage names.
package stage

import (
	"fmt"
	"strings"
	"time"
)

// Stage names one phase of the solver pipeline. The constants below
// cover every long-running loop that honors context cancellation.
type Stage string

const (
	// Decompose covers tree-decomposition construction: elimination
	// orderings, triangulation and decomposition build.
	Decompose Stage = "decompose"
	// NormalizeTuple covers normalization to the tuple normal form of
	// Definition 2.3 / Proposition 2.4.
	NormalizeTuple Stage = "normalize-tuple"
	// NormalizeNice covers normalization to the nice form of Section 5.
	NormalizeNice Stage = "normalize-nice"
	// BuildTD covers construction of the τ_td structure of Section 4.
	BuildTD Stage = "build-td"
	// Compile covers MSO-to-datalog compilation (Theorem 4.5),
	// including type saturation.
	Compile Stage = "compile"
	// Eval covers datalog evaluation, both semi-naive stratified
	// evaluation and the quasi-guarded grounding path of Theorem 4.4.
	Eval Stage = "eval"
	// Solver covers the semiring problem algebra of internal/solver:
	// the generic evaluator that runs one Problem in decision, counting
	// and optimization modes, including witness reconstruction.
	Solver Stage = "solver"
	// MSOEval covers the naive MSO model-checking evaluator used by
	// the compiler's witness oracle and cmd/msoeval.
	MSOEval Stage = "mso-eval"
	// Game covers the game-theoretic MSO backend (backend/game): lazy
	// model-checking-game exploration over the nice decomposition.
	Game Stage = "game"
)

// Error tags an underlying error with the pipeline stage it escaped
// from. It unwraps, so errors.Is(err, context.Canceled) and
// errors.As(err, *stage.Error) both work on the same value.
type Error struct {
	Stage Stage
	Err   error
}

func (e *Error) Error() string {
	return fmt.Sprintf("stage %s: %v", e.Stage, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// Wrap tags err with a stage. A nil err stays nil, and an error that
// already carries a stage tag is returned unchanged: the innermost
// stage — the loop that actually observed the cancellation — wins.
func Wrap(s Stage, err error) error {
	if err == nil {
		return nil
	}
	if _, ok := err.(*Error); ok { //nolint:errorlint // deliberate: only an explicit outer tag is checked
		return err
	}
	return &Error{Stage: s, Err: err}
}

// Of reports the stage tag of err, or "" if err carries none.
func Of(err error) Stage {
	for err != nil {
		if se, ok := err.(*Error); ok { //nolint:errorlint // manual unwrap loop
			return se.Stage
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return ""
		}
		err = u.Unwrap()
	}
	return ""
}

// Stat records one stage execution: how long it took, how big its
// output was (stage-specific units, e.g. nodes or facts) and whether
// it was served from a session cache.
type Stat struct {
	Stage    Stage
	Wall     time.Duration
	Size     int
	CacheHit bool
	// Detail annotates the stat with a stage-specific note — e.g. which
	// rung of the decomposition degradation ladder produced the result.
	Detail string
}

// Trace accumulates the stats of one pipeline run in execution order.
type Trace struct {
	Stats []Stat
}

// Record appends a stat for a completed stage.
func (t *Trace) Record(s Stage, wall time.Duration, size int, cacheHit bool) {
	t.RecordDetail(s, wall, size, cacheHit, "")
}

// RecordDetail is Record with a stage-specific annotation (e.g. the
// degradation-ladder rung that produced a decomposition).
func (t *Trace) RecordDetail(s Stage, wall time.Duration, size int, cacheHit bool, detail string) {
	if t == nil {
		return
	}
	t.Stats = append(t.Stats, Stat{Stage: s, Wall: wall, Size: size, CacheHit: cacheHit, Detail: detail})
}

// Time runs f, records its wall time under stage s and returns f's
// error tagged with s (unless already tagged deeper).
func (t *Trace) Time(s Stage, size func() int, f func() error) error {
	start := time.Now()
	err := f()
	n := 0
	if size != nil && err == nil {
		n = size()
	}
	t.Record(s, time.Since(start), n, false)
	return Wrap(s, err)
}

// Total returns the sum of all recorded wall times.
func (t *Trace) Total() time.Duration {
	if t == nil {
		return 0
	}
	var sum time.Duration
	for _, s := range t.Stats {
		sum += s.Wall
	}
	return sum
}

// String formats the trace as one line per stage, e.g.
//
//	decompose        1.2ms  size=17
//	compile           12ms  size=240  (cached)
func (t *Trace) String() string {
	if t == nil || len(t.Stats) == 0 {
		return "(empty trace)"
	}
	var b strings.Builder
	for _, s := range t.Stats {
		fmt.Fprintf(&b, "%-16s %10s  size=%d", s.Stage, s.Wall.Round(time.Microsecond), s.Size)
		if s.Detail != "" {
			fmt.Fprintf(&b, "  [%s]", s.Detail)
		}
		if s.CacheHit {
			b.WriteString("  (cached)")
		}
		b.WriteByte('\n')
	}
	return b.String()
}
