// Package cli centralizes what every cmd/* tool needs to fail well: a
// shared exit-code taxonomy, one-line stage-tagged error rendering
// (never a stack trace), resource-budget and deadline plumbing, and
// fault-injection arming from the FAULTINJECT environment variable.
//
// Exit codes:
//
//	0  success
//	1  generic error (bad input, invalid data, internal error)
//	2  usage error (flag parsing; emitted by the tools themselves)
//	3  resource budget exceeded (-budget, mso step budget)
//	4  deadline or cancellation (-timeout)
//	5  recovered panic (a bug — the one-line message names the stage)
//	6  overloaded (admission shed or circuit breaker open; retryable)
package cli

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/overload"
	"repro/internal/stage"
)

// Exit codes shared by all cmd/* tools.
const (
	ExitOK       = 0
	ExitError    = 1
	ExitUsage    = 2
	ExitBudget   = 3
	ExitTimeout  = 4
	ExitPanic    = 5
	ExitOverload = 6
)

// ErrUsage marks malformed input from the caller — bad flags, an
// unparseable request body, an invalid formula or structure. Wrap bad
// input with it (fmt.Errorf("%w: ...", cli.ErrUsage)) so ExitCode
// classifies it as ExitUsage and HTTPStatus as 400 rather than a
// generic internal error.
var ErrUsage = errors.New("usage error")

// ExitCode classifies err into the taxonomy above. Stage tags do not
// affect the class, only the message.
func ExitCode(err error) int {
	var pe *stage.PanicError
	switch {
	case err == nil:
		return ExitOK
	case errors.As(err, &pe):
		return ExitPanic
	case errors.Is(err, ErrUsage):
		return ExitUsage
	case errors.Is(err, overload.ErrShed), errors.Is(err, overload.ErrBreakerOpen):
		return ExitOverload
	case errors.Is(err, stage.ErrBudgetExceeded):
		return ExitBudget
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return ExitTimeout
	default:
		return ExitError
	}
}

// HTTPStatus maps err's taxonomy class onto the HTTP status code the
// decision service (cmd/monadicd) answers with:
//
//	ok       → 200
//	usage    → 400 (bad request body, formula or structure)
//	budget   → 429 (per-request resource budget exceeded)
//	overload → 429 (admission shed) or 503 (circuit breaker open);
//	           both carry Retry-After, see RetryAfter
//	timeout  → 504 (per-request deadline or client cancellation)
//	panic    → 500 (a bug; the one-line message names the stage)
//	error    → 500 (any other pipeline failure)
func HTTPStatus(err error) int {
	switch ExitCode(err) {
	case ExitOK:
		return http.StatusOK
	case ExitUsage:
		return http.StatusBadRequest
	case ExitBudget:
		return http.StatusTooManyRequests
	case ExitOverload:
		if errors.Is(err, overload.ErrBreakerOpen) {
			return http.StatusServiceUnavailable
		}
		return http.StatusTooManyRequests
	case ExitTimeout:
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// RetryAfter extracts the Retry-After hint an overload error carries
// (admission shed, breaker fast-fail): the duration the server
// estimates until capacity frees up, or 0 when err carries none. The
// server turns a nonzero hint into a Retry-After header on the 429/503
// answer; the internal/client retry loop honors it over its own
// backoff.
func RetryAfter(err error) time.Duration {
	var hinted interface{ RetryAfterHint() time.Duration }
	if errors.As(err, &hinted) {
		return hinted.RetryAfterHint()
	}
	return 0
}

// Message renders err as a single line prefixed with the tool name and,
// when the error carries one, its pipeline stage. Panic stacks are
// dropped: users get "panic in stage X: v", debuggers can re-run with
// the fault plan or a debugger attached.
func Message(tool string, err error) string {
	s := stage.Of(err)
	var pe *stage.PanicError
	if errors.As(err, &pe) {
		if s != "" {
			return fmt.Sprintf("%s: [%s] internal error: recovered panic: %v", tool, s, pe.Value)
		}
		return fmt.Sprintf("%s: internal error: recovered panic: %v", tool, pe.Value)
	}
	msg := err.Error()
	if s != "" {
		// stage.Error renders as "stage X: ..."; reshape to "[X] ...".
		msg = strings.TrimPrefix(msg, fmt.Sprintf("stage %s: ", s))
		return fmt.Sprintf("%s: [%s] %s", tool, s, firstLine(msg))
	}
	return fmt.Sprintf("%s: %s", tool, firstLine(msg))
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// Fail prints the one-line message for err to stderr and exits with
// its taxonomy code. It must only be called after flag parsing.
func Fail(tool string, err error) {
	fmt.Fprintln(os.Stderr, Message(tool, err))
	os.Exit(ExitCode(err))
}

// Init arms fault injection from the FAULTINJECT environment variable
// (see faultinject.InitFromSpec) and returns a usage-style error for a
// malformed spec. Tools call it once, before doing work.
func Init() error {
	return faultinject.InitFromSpec(os.Getenv("FAULTINJECT"))
}

// Backend checks an evaluation backend name by core.CheckBackend ("" =
// the default automaton pipeline) and returns it normalized, wrapping an
// unknown name in ErrUsage so ExitCode classifies it as ExitUsage.
func Backend(name string) (string, error) {
	b, err := core.CheckBackend(name)
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrUsage, err)
	}
	return b, nil
}

// Context builds the tool's root context: a deadline from timeout (0 =
// none) and a uniform resource budget of n for each metered dimension
// (0 = unlimited), attached via the stage budget plumbing. The cancel
// func must be deferred.
func Context(timeout time.Duration, n int64) (context.Context, context.CancelFunc) {
	b := stage.Uniform(n)
	if timeout > 0 {
		if b == nil {
			b = &stage.Budget{}
		}
		b.Deadline = time.Now().Add(timeout)
	}
	return stage.ApplyDeadline(context.Background(), b)
}
