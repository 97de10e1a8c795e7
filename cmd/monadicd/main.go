// monadicd is the networked decision service: an HTTP server exposing
// MSO evaluation and the semiring solver problems over the session
// layer. See internal/server for the endpoints and the README "Serving"
// section for the wire format.
//
// Usage:
//
//	monadicd [-addr :8377] [-budget n] [-timeout d] [-max-sessions n] [-grace d]
//	         [-eval grounded|direct]
//	         [-backend automaton|game]
//	         [-max-budget n] [-max-timeout d]
//	         [-max-concurrency n] [-queue n] [-latency-target d]
//	         [-breaker-threshold n] [-breaker-cooldown d]
//	         [-mem-watermark-mb n]
//	         [-read-header-timeout d] [-read-timeout d] [-idle-timeout d]
//
// -budget and -timeout set the per-request defaults (each request gets
// a freshly minted budget; X-Budget / X-Timeout headers override, up to
// the -max-budget / -max-timeout ceilings — a header above its ceiling
// is a 400). -eval selects the session evaluation path — "grounded" is
// the paper-faithful Theorem 4.4 grounding, "direct" streams the
// compiled program through the datalog engine without materializing the
// ground program. -backend sets the default MSO evaluation backend for
// /eval and /batch — "automaton" (the Theorem 4.4/4.5
// compile-and-evaluate pipeline) or "game" (the lazy game-theoretic
// evaluator); the X-Backend header overrides it per request.
//
// Overload control: adaptive admission (AIMD on observed latency versus
// -latency-target, concurrency capped at -max-concurrency, a bounded
// deadline-aware wait queue of -queue) answers 429 + Retry-After when
// shedding; per-structure circuit breakers (-breaker-threshold
// consecutive capacity failures open one for -breaker-cooldown) answer
// 503 + Retry-After while open. -mem-watermark-mb arms the memory
// watchdog, shedding caches in tiers when the heap crosses it. See the
// README operations table and DESIGN.md "Overload & self-healing".
//
// On SIGINT/SIGTERM the server drains in-flight requests for up to
// -grace before aborting them through context cancellation.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/overload"
	"repro/internal/server"
	"repro/internal/session"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8377", "listen address")
	budget := flag.Int64("budget", 0, "default per-request resource budget per metered dimension (0 = unlimited)")
	timeout := flag.Duration("timeout", 0, "default per-request deadline (0 = none)")
	maxSessions := flag.Int("max-sessions", server.DefaultMaxSessions, "resident session cap (FIFO eviction beyond it)")
	grace := flag.Duration("grace", 5*time.Second, "shutdown drain grace period")
	evalPath := flag.String("eval", "grounded", "session evaluation path: grounded (Theorem 4.4) or direct (stream the program, skip grounding)")
	backendName := flag.String("backend", "", "default MSO evaluation backend: automaton or game (X-Backend overrides per request)")
	maxBudget := flag.Int64("max-budget", 0, "ceiling on the X-Budget header (0 = none; a header above it is a 400)")
	maxTimeout := flag.Duration("max-timeout", 0, "ceiling on the X-Timeout header (0 = none; a header above it is a 400)")
	maxConcurrency := flag.Int("max-concurrency", server.DefaultMaxConcurrency, "upper bound of the adaptive concurrency limit")
	queueCap := flag.Int("queue", server.DefaultQueueCap, "admission wait-queue capacity (requests beyond it are shed with 429)")
	latencyTarget := flag.Duration("latency-target", server.DefaultLatencyTarget, "AIMD latency setpoint for the admission limiter (negative = fixed limit)")
	breakerThreshold := flag.Int("breaker-threshold", server.DefaultBreakerThreshold, "consecutive capacity failures that open a structure's circuit breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", server.DefaultBreakerCooldown, "how long an open breaker fast-fails (503) before half-open probes")
	memWatermarkMB := flag.Int64("mem-watermark-mb", 0, "heap watermark in MiB arming the memory watchdog (0 = disabled)")
	readHeaderTimeout := flag.Duration("read-header-timeout", server.DefaultReadHeaderTimeout, "HTTP header read timeout (negative = disabled)")
	readTimeout := flag.Duration("read-timeout", server.DefaultReadTimeout, "HTTP full-request read timeout (negative = disabled)")
	idleTimeout := flag.Duration("idle-timeout", server.DefaultIdleTimeout, "HTTP keep-alive idle timeout (negative = disabled)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "monadicd: unexpected arguments")
		flag.Usage()
		os.Exit(cli.ExitUsage)
	}
	if *memWatermarkMB < 0 {
		fmt.Fprintln(os.Stderr, "monadicd: -mem-watermark-mb must be >= 0")
		os.Exit(cli.ExitUsage)
	}
	switch *evalPath {
	case "grounded":
		session.SetEvalPath(session.EvalGrounded)
	case "direct":
		session.SetEvalPath(session.EvalDirect)
	default:
		fmt.Fprintf(os.Stderr, "monadicd: unknown -eval %q (want grounded or direct)\n", *evalPath)
		os.Exit(cli.ExitUsage)
	}
	if _, err := cli.Backend(*backendName); err != nil {
		fmt.Fprintln(os.Stderr, cli.Message("monadicd", err))
		os.Exit(cli.ExitUsage)
	}
	if err := cli.Init(); err != nil {
		fmt.Fprintln(os.Stderr, cli.Message("monadicd", err))
		os.Exit(cli.ExitUsage)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		cli.Fail("monadicd", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := server.New(server.Config{
		Budget:      *budget,
		Timeout:     *timeout,
		MaxBudget:   *maxBudget,
		MaxTimeout:  *maxTimeout,
		Backend:     *backendName,
		MaxSessions: *maxSessions,
		Limiter: overload.LimiterConfig{
			Max:           *maxConcurrency,
			QueueCap:      *queueCap,
			LatencyTarget: *latencyTarget,
		},
		Breaker: overload.BreakerConfig{
			Threshold: *breakerThreshold,
			Cooldown:  *breakerCooldown,
		},
		MemWatermark:      uint64(*memWatermarkMB) << 20,
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		IdleTimeout:       *idleTimeout,
	})
	log.Printf("monadicd: listening on http://%s", l.Addr())
	if err := server.Run(ctx, l, srv, *grace); err != nil {
		cli.Fail("monadicd", err)
	}
	log.Printf("monadicd: drained, bye")
}
