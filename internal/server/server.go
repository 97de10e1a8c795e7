// Package server implements monadicd, the networked decision service:
// a stdlib net/http front end over the session layer. Requests carry a
// structure (fact-list text) plus a query; the server shards work into
// per-structure sessions keyed by content fingerprint, so every request
// against the same structure shares one decomposition, one τ_td build,
// one compiled program per formula, and the per-session result and
// solver caches — including requests that arrive while the artifacts
// are still being built (the session layer's single-flight).
//
// Admission control mints a fresh stage.Budget and deadline for every
// request (Budgets are single-run tallies; see stage.Budget), from the
// server-wide defaults or the X-Budget / X-Timeout request headers.
// Failures map the cli exit taxonomy onto HTTP status codes via
// cli.HTTPStatus: usage → 400, budget → 429, timeout → 504, panic and
// everything else → 500.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/domset"
	"repro/internal/graph"
	"repro/internal/mso"
	"repro/internal/overload"
	"repro/internal/session"
	"repro/internal/solver"
	"repro/internal/stage"
	"repro/internal/structure"
	"repro/internal/threecol"
	"repro/internal/vcover"
	"repro/internal/wis"
)

// Config carries the server-wide defaults. The zero value is a usable
// server: no budget, no deadline, default session cap, a fresh shared
// program cache, default admission limits, breakers, no watchdog.
type Config struct {
	// Budget is the default per-request uniform resource budget for
	// each metered dimension (0 = unlimited). Overridable per request
	// via the X-Budget header.
	Budget int64
	// Timeout is the default per-request deadline (0 = none).
	// Overridable per request via the X-Timeout header (a Go duration,
	// e.g. "500ms").
	Timeout time.Duration
	// MaxBudget caps the X-Budget header (0 = no ceiling): a request
	// demanding more is rejected with 400 rather than allowed to squat
	// on capacity. The server-wide default Budget is not checked against
	// it — the ceiling guards against clients, not configuration.
	MaxBudget int64
	// MaxTimeout caps the X-Timeout header the same way (0 = no
	// ceiling).
	MaxTimeout time.Duration
	// Backend is the default evaluation backend for /eval and /batch
	// ("" = core.DefaultBackend, the automaton pipeline). Overridable
	// per request via the X-Backend header; unknown names are a 400.
	Backend string
	// MaxSessions caps the resident session registry; beyond it the
	// oldest session is evicted FIFO (its program-cache entries survive
	// in the shared cache). 0 means DefaultMaxSessions.
	MaxSessions int
	// MaxBody caps request body size in bytes. 0 means DefaultMaxBody.
	MaxBody int64
	// Progs is the shared warm program cache; nil means a fresh one.
	Progs *session.ProgramCache

	// Limiter configures adaptive admission in front of /eval, /solve,
	// /batch and /mutate (see overload.Limiter). Zero fields resolve to
	// the overload package defaults, except LatencyTarget, which
	// defaults to DefaultLatencyTarget here (negative disables
	// adaptation, freezing the limit at Initial).
	Limiter overload.LimiterConfig
	// Breaker configures the per-structure-fingerprint circuit breakers
	// (see overload.Breaker). Zero fields resolve to the overload
	// package defaults.
	Breaker overload.BreakerConfig
	// MemWatermark, when nonzero, enables the memory watchdog: a heap
	// reading above this many bytes sheds caches in tiers (per-session
	// result caches → shared program cache → FIFO session eviction).
	MemWatermark uint64
	// WatchdogInterval is the watchdog sampling period (0 = the
	// overload package default).
	WatchdogInterval time.Duration

	// ReadHeaderTimeout, ReadTimeout and IdleTimeout harden the HTTP
	// listener against trickling clients (slowloris): 0 resolves to the
	// defaults below, negative disables the timeout. MaxHeaderBytes
	// caps request header size (0 = DefaultMaxHeaderBytes).
	ReadHeaderTimeout time.Duration
	ReadTimeout       time.Duration
	IdleTimeout       time.Duration
	MaxHeaderBytes    int
}

// Defaults for Config zero fields.
const (
	DefaultMaxSessions       = 256
	DefaultMaxBody           = 8 << 20
	DefaultLatencyTarget     = 250 * time.Millisecond
	DefaultReadHeaderTimeout = 5 * time.Second
	DefaultReadTimeout       = 30 * time.Second
	DefaultIdleTimeout       = 2 * time.Minute
	DefaultMaxHeaderBytes    = 1 << 20
	// maxBreakers caps the per-fingerprint breaker registry (FIFO
	// eviction beyond it, like the session registry).
	maxBreakers = 1024
)

// Overload defaults re-exported for cmd/monadicd's flag definitions.
const (
	DefaultMaxConcurrency   = overload.DefaultMaxLimit
	DefaultQueueCap         = overload.DefaultQueueCap
	DefaultBreakerThreshold = overload.DefaultBreakerThreshold
	DefaultBreakerCooldown  = overload.DefaultBreakerCooldown
)

// Server is the decision service: a session registry sharded by
// structure fingerprint plus the HTTP handlers over it. All methods
// are safe for concurrent use.
type Server struct {
	cfg      Config
	progs    *session.ProgramCache
	start    time.Time
	limiter  *overload.Limiter
	watchdog *overload.Watchdog // nil when MemWatermark is 0

	// sessions and breakers are keyed by structure fingerprint, FIFO
	// beyond MaxSessions and maxBreakers.
	sessions *cache.Cache[uint64, *session.Session]
	breakers *cache.Cache[uint64, *overload.Breaker]
	// texts maps a structure text that parsed, by its SHA-256 so that
	// request bodies are not retained, to the fingerprint of its parse,
	// FIFO beyond MaxSessions: a request naming a resident structure by
	// a text seen before skips the parse (see resolve).
	texts *cache.Cache[[sha256.Size]byte, uint64]

	mu          sync.Mutex
	requests    int64
	statuses    map[int]int64    // HTTP status → responses sent
	backendReqs map[string]int64 // backend name → admitted eval/batch requests

	// testGate, when set, is called by handlers after admission and
	// before evaluating, with the request context — a seam for the
	// drain tests to hold a request in flight deterministically.
	testGate func(ctx context.Context, op string)
}

// New builds a Server from cfg, resolving zero fields to defaults.
func New(cfg Config) *Server {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = DefaultMaxBody
	}
	progs := cfg.Progs
	if progs == nil {
		progs = session.NewProgramCache()
	}
	switch {
	case cfg.Limiter.LatencyTarget == 0:
		cfg.Limiter.LatencyTarget = DefaultLatencyTarget
	case cfg.Limiter.LatencyTarget < 0:
		cfg.Limiter.LatencyTarget = 0 // adaptation off, fixed limit
	}
	s := &Server{
		cfg:         cfg,
		progs:       progs,
		start:       time.Now(),
		limiter:     overload.NewLimiter(cfg.Limiter),
		sessions:    cache.New[uint64, *session.Session](cfg.MaxSessions),
		texts:       cache.New[[sha256.Size]byte, uint64](cfg.MaxSessions),
		breakers:    cache.New[uint64, *overload.Breaker](maxBreakers),
		statuses:    make(map[int]int64),
		backendReqs: make(map[string]int64),
	}
	if cfg.MemWatermark > 0 {
		s.watchdog = overload.NewWatchdog(overload.WatchdogConfig{
			Watermark: cfg.MemWatermark,
			Interval:  cfg.WatchdogInterval,
		}, s.watchdogTiers())
	}
	return s
}

// Handler returns the service mux:
//
//	POST /eval    evaluate one MSO query over one structure
//	POST /solve   run a named solver problem (decide/count/optimize)
//	POST /batch   evaluate many queries grouped per structure
//	POST /mutate  edit a resident structure, keeping its session warm
//	GET  /healthz liveness
//	GET  /statsz  session / cache / status counters
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/eval", s.post(s.handleEval))
	mux.HandleFunc("/solve", s.post(s.handleSolve))
	mux.HandleFunc("/batch", s.post(s.handleBatch))
	mux.HandleFunc("/mutate", s.post(s.handleMutate))
	mux.HandleFunc("/healthz", s.get(s.handleHealthz))
	mux.HandleFunc("/statsz", s.get(s.handleStatsz))
	return mux
}

func (s *Server) post(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			s.reply(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST only", Status: http.StatusMethodNotAllowed})
			return
		}
		h(w, r)
	}
}

func (s *Server) get(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			s.reply(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "GET only", Status: http.StatusMethodNotAllowed})
			return
		}
		h(w, r)
	}
}

// ErrorResponse is the JSON body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
	// Stage names the pipeline stage the error carries, when it does.
	Stage string `json:"stage,omitempty"`
	// Status echoes the HTTP status; Code is the cli exit-taxonomy
	// class the status was derived from.
	Status int `json:"status"`
	Code   int `json:"code,omitempty"`
}

func (s *Server) reply(w http.ResponseWriter, status int, payload any) {
	s.mu.Lock()
	s.requests++
	s.statuses[status]++
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(payload) //nolint:errcheck // client gone is not our error
}

func (s *Server) fail(w http.ResponseWriter, err error) {
	status := cli.HTTPStatus(err)
	// Overload rejections (admission shed → 429, breaker open → 503)
	// carry the server's capacity estimate; surface it the standard way.
	if ra := cli.RetryAfter(err); ra > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt(int64((ra+time.Second-1)/time.Second), 10))
	}
	s.reply(w, status, ErrorResponse{
		Error:  err.Error(),
		Stage:  string(stage.Of(err)),
		Status: status,
		Code:   cli.ExitCode(err),
	})
}

// admit builds the request context: a fresh single-run stage.Budget and
// deadline from the server defaults, overridden by the X-Budget and
// X-Timeout headers. Minting per request is load-bearing — a Budget is
// a cumulative tally, so sharing one across requests would turn steady
// load into spurious 429s (see stage.Budget's contract). Header values
// above the configured MaxBudget / MaxTimeout ceilings are a 400, not a
// clamp: silently shrinking what a client asked for would turn its
// requests into surprise 429s/504s. A header of 0 means "unlimited" and
// is likewise rejected when a ceiling is set.
func (s *Server) admit(r *http.Request) (context.Context, context.CancelFunc, error) {
	n := s.cfg.Budget
	if h := r.Header.Get("X-Budget"); h != "" {
		v, err := strconv.ParseInt(h, 10, 64)
		if err != nil || v < 0 {
			return nil, nil, fmt.Errorf("%w: X-Budget %q", cli.ErrUsage, h)
		}
		if s.cfg.MaxBudget > 0 && (v == 0 || v > s.cfg.MaxBudget) {
			return nil, nil, fmt.Errorf("%w: X-Budget %d exceeds the server ceiling %d", cli.ErrUsage, v, s.cfg.MaxBudget)
		}
		n = v
	}
	d := s.cfg.Timeout
	if h := r.Header.Get("X-Timeout"); h != "" {
		v, err := time.ParseDuration(h)
		if err != nil || v < 0 {
			return nil, nil, fmt.Errorf("%w: X-Timeout %q", cli.ErrUsage, h)
		}
		if s.cfg.MaxTimeout > 0 && (v == 0 || v > s.cfg.MaxTimeout) {
			return nil, nil, fmt.Errorf("%w: X-Timeout %v exceeds the server ceiling %v", cli.ErrUsage, v, s.cfg.MaxTimeout)
		}
		d = v
	}
	b := stage.Uniform(n)
	if d > 0 {
		if b == nil {
			b = &stage.Budget{}
		}
		b.Deadline = time.Now().Add(d)
	}
	ctx, cancel := stage.ApplyDeadline(r.Context(), b)
	return ctx, cancel, nil
}

// backendName resolves the request's evaluation backend: the X-Backend
// header, falling back to the server default. The name is checked by
// core.CheckBackend — an unknown name is a usage error (400), mirroring
// the X-Budget ceiling check — and returned normalized.
func (s *Server) backendName(r *http.Request) (string, error) {
	name := r.Header.Get("X-Backend")
	if name == "" {
		name = s.cfg.Backend
	}
	b, err := core.CheckBackend(name)
	if err != nil {
		return "", fmt.Errorf("%w: X-Backend: %v", cli.ErrUsage, err)
	}
	return b, nil
}

// countBackend tallies one admitted eval/batch request per backend.
func (s *Server) countBackend(name string) {
	s.mu.Lock()
	s.backendReqs[name]++
	s.mu.Unlock()
}

// sessionFor returns the resident session under fingerprint fp, which
// must be st's, creating (and FIFO-evicting) under the registry cap.
// Sessions share the server's program cache, so an evicted-and-recreated
// session still skips recompilation.
func (s *Server) sessionFor(fp uint64, st *structure.Structure) *session.Session {
	return s.sessions.GetOrAdd(fp, func() *session.Session {
		return session.NewWithCache(st, s.progs)
	})
}

// structureRef is a request's structure text resolved to its content
// fingerprint, with the parsed structure when resolving parsed it.
type structureRef struct {
	text string
	fp   uint64
	st   *structure.Structure
}

// resolve fingerprints a structure text before admission. The
// fingerprint of a parse depends on the text alone, so it is memoized
// per text: a text seen before whose session is resident resolves
// without parsing, and any other text parses as it always did. Parse
// errors are not memoized.
func (s *Server) resolve(text string) (structureRef, error) {
	sum := sha256.Sum256([]byte(text))
	if fp, ok := s.texts.Peek(sum); ok {
		if _, ok := s.sessions.Peek(fp); ok {
			return structureRef{text: text, fp: fp}, nil
		}
	}
	st, err := parseStructure(text)
	if err != nil {
		return structureRef{}, err
	}
	fp := session.Fingerprint(st)
	s.texts.Add(sum, fp)
	return structureRef{text: text, fp: fp, st: st}, nil
}

// sessionOf returns the session for an admitted request's resolved
// text. It reads the registry only now: while the request waited for
// admission, a /mutate may have edited the session its text resolved
// to and moved it to the post-edit fingerprint. The text then parses
// again (it parsed before, so it cannot fail) and binds a session of
// the structure it describes.
func (s *Server) sessionOf(ref structureRef) (*session.Session, error) {
	if ref.st == nil {
		if sess, ok := s.sessions.Peek(ref.fp); ok {
			return sess, nil
		}
		st, err := parseStructure(ref.text)
		if err != nil {
			return nil, err
		}
		ref.st = st
	}
	return s.sessionFor(ref.fp, ref.st), nil
}

func (s *Server) decode(r *http.Request, into any) error {
	body := http.MaxBytesReader(nil, r.Body, s.cfg.MaxBody)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("%w: request body: %v", cli.ErrUsage, err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return fmt.Errorf("%w: request body: trailing data", cli.ErrUsage)
	}
	return nil
}

func parseStructure(src string) (*structure.Structure, error) {
	st, err := structure.Parse(src, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", cli.ErrUsage, err)
	}
	return st, nil
}

// EvalRequest asks for one MSO query over one structure (fact-list
// text, see structure.Parse). An empty Var means decision mode: the
// formula must be a sentence and the answer is its truth value.
type EvalRequest struct {
	Structure string `json:"structure"`
	Formula   string `json:"formula"`
	Var       string `json:"var,omitempty"`
}

// EvalResponse carries the answer plus the decomposition's shape.
type EvalResponse struct {
	// Holds is the sentence's truth value (decision mode only).
	Holds *bool `json:"holds,omitempty"`
	// Selected lists the element names satisfying the unary query
	// (unary mode only; empty slice when none do).
	Selected []string `json:"selected,omitempty"`
	Width    int      `json:"width"`
	TDNodes  int      `json:"td_nodes"`
}

func evalOne(ctx context.Context, sess *session.Session, formula, xVar, backend string) (EvalResponse, error) {
	phi, err := mso.Parse(formula)
	if err != nil {
		return EvalResponse{}, fmt.Errorf("%w: formula: %v", cli.ErrUsage, err)
	}
	// The signature of a session's structure never changes, so it is
	// read without View.
	if err := phi.CheckSignature(sess.Structure().Sig()); err != nil {
		return EvalResponse{}, fmt.Errorf("%w: formula: %v", cli.ErrUsage, err)
	}
	// A unary query has var as its one free variable; a decision (no
	// var) takes a sentence.
	if err := phi.CheckFree(xVar); err != nil {
		return EvalResponse{}, fmt.Errorf("%w: formula: %v", cli.ErrUsage, err)
	}
	opts := core.Options{Decision: xVar == "", Backend: backend}
	res, err := sess.Eval(ctx, phi, xVar, opts)
	if err != nil {
		return EvalResponse{}, err
	}
	resp := EvalResponse{Width: res.Width, TDNodes: res.TDNodes}
	if xVar == "" {
		h := res.Holds
		resp.Holds = &h
	} else {
		resp.Selected = []string{}
		if res.Selected != nil {
			// View serializes the name lookups against /mutate edits.
			sess.View(func(st *structure.Structure) {
				for _, id := range res.Selected.Elems() {
					resp.Selected = append(resp.Selected, st.Name(id))
				}
			})
		}
	}
	return resp, nil
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	var req EvalRequest
	if err := s.decode(r, &req); err != nil {
		s.fail(w, err)
		return
	}
	ctx, cancel, err := s.admit(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer cancel()
	backend, err := s.backendName(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	ref, err := s.resolve(req.Structure)
	if err != nil {
		s.fail(w, err)
		return
	}
	weight := int64(costEval)
	if req.Var == "" {
		weight = costDecision
	}
	finish, err := s.admitOverload(ctx, []uint64{ref.fp}, estimateCost(len(req.Structure), weight))
	if err != nil {
		s.fail(w, err)
		return
	}
	s.countBackend(backend)
	resp, err := s.evalAdmitted(ctx, req, ref, backend)
	finish(sameOutcome(err))
	if err != nil {
		s.fail(w, err)
		return
	}
	s.reply(w, http.StatusOK, resp)
}

// evalAdmitted is handleEval past admission, factored out so the
// finish callback sees every outcome on one path.
func (s *Server) evalAdmitted(ctx context.Context, req EvalRequest, ref structureRef, backend string) (resp EvalResponse, err error) {
	err = s.onText(ctx, ref, "eval", func(ctx context.Context, sess *session.Session) error {
		resp, err = evalOne(ctx, sess, req.Formula, req.Var, backend)
		return err
	})
	return resp, err
}

// onText runs fn on the session of an admitted request's resolved text,
// under a context pinned to the text's fingerprint (session.Pin). A
// /mutate may edit that session after it is bound, and fn then fails
// with session.ErrMoved: the text is bound again, parsing it again if
// its session is not resident, since ref's own parse may be the
// structure that was edited, and fn runs again.
func (s *Server) onText(ctx context.Context, ref structureRef, op string, fn func(context.Context, *session.Session) error) error {
	ctx = session.Pin(ctx, ref.fp)
	for {
		sess, err := s.sessionOf(ref)
		if err != nil {
			return err
		}
		if s.testGate != nil {
			s.testGate(ctx, op)
		}
		if err := fn(ctx, sess); !errors.Is(err, session.ErrMoved) {
			return err
		}
		ref.st = nil
	}
}

// SolveRequest runs a named FPT problem over the primal graph of the
// structure, on the session's cached decomposition. Problems:
// "threecol", "kcolor" (requires K), "vcover", "domset", "wis"
// (optional Weights, one per element in structure order). Modes:
// "decide", "count", "optimize".
type SolveRequest struct {
	Structure string `json:"structure"`
	Problem   string `json:"problem"`
	Mode      string `json:"mode"`
	K         int    `json:"k,omitempty"`
	Weights   []int  `json:"weights,omitempty"`
}

// SolveResponse carries the mode-specific answer: OK for decide, Count
// (decimal) for count, Feasible+Value for optimize. For "wis" the
// optimize Value is the maximum total weight (the tropical solver's
// negated minimum).
type SolveResponse struct {
	Problem  string `json:"problem"`
	Mode     string `json:"mode"`
	OK       *bool  `json:"ok,omitempty"`
	Count    string `json:"count,omitempty"`
	Feasible *bool  `json:"feasible,omitempty"`
	Value    *int   `json:"value,omitempty"`
}

func problemFor(req SolveRequest, g *graph.Graph) (solver.Problem[uint64], error) {
	switch req.Problem {
	case "threecol":
		return threecol.Problem(g, 3), nil
	case "kcolor":
		if req.K < 1 || req.K > threecol.MaxColors {
			return nil, fmt.Errorf("%w: kcolor requires k in 1..%d, got %d", cli.ErrUsage, threecol.MaxColors, req.K)
		}
		return threecol.Problem(g, req.K), nil
	case "vcover":
		return vcover.Problem(g), nil
	case "domset":
		return domset.Problem(g), nil
	case "wis":
		p, err := wis.Problem(g, req.Weights)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", cli.ErrUsage, err)
		}
		return p, nil
	default:
		return nil, fmt.Errorf("%w: unknown problem %q", cli.ErrUsage, req.Problem)
	}
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	if err := s.decode(r, &req); err != nil {
		s.fail(w, err)
		return
	}
	ctx, cancel, err := s.admit(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer cancel()
	ref, err := s.resolve(req.Structure)
	if err != nil {
		s.fail(w, err)
		return
	}
	finish, err := s.admitOverload(ctx, []uint64{ref.fp}, estimateCost(len(req.Structure), costSolve))
	if err != nil {
		s.fail(w, err)
		return
	}
	resp, err := s.solveAdmitted(ctx, req, ref)
	finish(sameOutcome(err))
	if err != nil {
		s.fail(w, err)
		return
	}
	s.reply(w, http.StatusOK, resp)
}

// solveAdmitted is handleSolve past admission, factored out so the
// finish callback sees every outcome on one path.
func (s *Server) solveAdmitted(ctx context.Context, req SolveRequest, ref structureRef) (resp SolveResponse, err error) {
	err = s.onText(ctx, ref, "solve", func(ctx context.Context, sess *session.Session) error {
		resp, err = solveOne(ctx, sess, req)
		return err
	})
	return resp, err
}

func solveOne(ctx context.Context, sess *session.Session, req SolveRequest) (SolveResponse, error) {
	// Primal vertex IDs are structure element IDs, matching the bags of
	// the session's decomposition. The snapshot is taken under View to
	// serialize against /mutate edits.
	var g *graph.Graph
	sess.View(func(st *structure.Structure) { g = graph.Primal(st) })
	p, err := problemFor(req, g)
	if err != nil {
		return SolveResponse{}, err
	}
	resp := SolveResponse{Problem: req.Problem, Mode: req.Mode}
	switch req.Mode {
	case "decide":
		ok, err := session.SolveDecide(ctx, sess, p)
		if err != nil {
			return SolveResponse{}, err
		}
		resp.OK = &ok
	case "count":
		n, err := session.SolveCount(ctx, sess, p)
		if err != nil {
			return SolveResponse{}, err
		}
		resp.Count = n.String()
	case "optimize":
		der, err := session.SolveOptimize(ctx, sess, p)
		if err != nil {
			return SolveResponse{}, err
		}
		feasible := der != nil
		resp.Feasible = &feasible
		if feasible {
			v := der.Value
			if req.Problem == "wis" {
				v = -v
			}
			resp.Value = &v
		}
	default:
		return SolveResponse{}, fmt.Errorf("%w: unknown mode %q", cli.ErrUsage, req.Mode)
	}
	return resp, nil
}

// BatchRequest evaluates many queries over a small set of structures in
// one round trip. Queries name their structure by index; all queries
// against one structure share the same session, so k queries cost one
// decomposition.
type BatchRequest struct {
	Structures []string     `json:"structures"`
	Queries    []BatchQuery `json:"queries"`
}

// BatchQuery is one query of a batch; Structure indexes
// BatchRequest.Structures.
type BatchQuery struct {
	Structure int    `json:"structure"`
	Formula   string `json:"formula"`
	Var       string `json:"var,omitempty"`
}

// BatchResult is one query's outcome: Status is the per-query HTTP
// taxonomy code (the batch itself answers 200 once admitted).
type BatchResult struct {
	Status int    `json:"status"`
	Error  string `json:"error,omitempty"`
	EvalResponse
}

// BatchStructureStat reports the session counters consumed while this
// batch ran against one structure — the cache-sharing receipt (k
// queries, Decompositions 1).
type BatchStructureStat struct {
	Decompositions   int `json:"decompositions"`
	Compiles         int `json:"compiles"`
	CompileCacheHits int `json:"compile_cache_hits"`
	Evals            int `json:"evals"`
	ResultCacheHits  int `json:"result_cache_hits"`
}

// BatchResponse mirrors the request: Results[i] answers Queries[i],
// Structures[j] accounts for Structures[j] of the request.
type BatchResponse struct {
	Results    []BatchResult        `json:"results"`
	Structures []BatchStructureStat `json:"structures"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := s.decode(r, &req); err != nil {
		s.fail(w, err)
		return
	}
	ctx, cancel, err := s.admit(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer cancel()
	backend, err := s.backendName(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	refs := make([]structureRef, len(req.Structures))
	fps := make([]uint64, len(req.Structures))
	cost := int64(0)
	for i, src := range req.Structures {
		ref, err := s.resolve(src)
		if err != nil {
			s.fail(w, fmt.Errorf("structure %d: %w", i, err))
			return
		}
		refs[i] = ref
		fps[i] = ref.fp
		cost += estimateCost(len(src), costDecision)
	}
	// One admission covers the whole batch (it holds one concurrency
	// slot), but every structure's breaker must agree to it and each
	// records its own verdict afterwards.
	finish, err := s.admitOverload(ctx, fps, cost)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.countBackend(backend)
	sessions := make([]*session.Session, len(req.Structures))
	before := make([]session.Stats, len(req.Structures))
	for i, ref := range refs {
		if sessions[i], err = s.sessionOf(ref); err != nil {
			finish(sameOutcome(err))
			s.fail(w, fmt.Errorf("structure %d: %w", i, err))
			return
		}
		before[i] = sessions[i].Stats()
	}
	if s.testGate != nil {
		s.testGate(ctx, "batch")
	}
	resp := BatchResponse{Results: make([]BatchResult, len(req.Queries))}
	worst := make(map[uint64]error, len(fps))
	for i, q := range req.Queries {
		if q.Structure < 0 || q.Structure >= len(sessions) {
			err := fmt.Errorf("%w: query %d: structure index %d out of range", cli.ErrUsage, i, q.Structure)
			resp.Results[i] = BatchResult{Status: cli.HTTPStatus(err), Error: err.Error()}
			continue
		}
		j := q.Structure
		one, err := evalOne(session.Pin(ctx, fps[j]), sessions[j], q.Formula, q.Var, backend)
		for errors.Is(err, session.ErrMoved) {
			// A /mutate edited the session after it was bound: bind the
			// text again, as onText does. The structure's receipt then
			// counts the new session alone.
			var sess *session.Session
			refs[j].st = nil
			if sess, err = s.sessionOf(refs[j]); err == nil {
				sessions[j], before[j] = sess, sess.Stats()
				one, err = evalOne(session.Pin(ctx, fps[j]), sess, q.Formula, q.Var, backend)
			}
		}
		if err != nil {
			if breakerFailure(err) && worst[fps[j]] == nil {
				worst[fps[j]] = err
			}
			resp.Results[i] = BatchResult{Status: cli.HTTPStatus(err), Error: err.Error()}
			continue
		}
		resp.Results[i] = BatchResult{Status: http.StatusOK, EvalResponse: one}
	}
	finish(func(fp uint64) error { return worst[fp] })
	for i, sess := range sessions {
		after := sess.Stats()
		resp.Structures = append(resp.Structures, BatchStructureStat{
			Decompositions:   after.Decompositions - before[i].Decompositions,
			Compiles:         after.Compiles - before[i].Compiles,
			CompileCacheHits: after.CompileCacheHits - before[i].CompileCacheHits,
			Evals:            after.Evals - before[i].Evals,
			ResultCacheHits:  after.ResultCacheHits - before[i].ResultCacheHits,
		})
	}
	s.reply(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.reply(w, http.StatusOK, map[string]string{"status": "ok"})
}

// ProgCacheStats is the /statsz view of the shared program cache.
type ProgCacheStats struct {
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
	Len    int `json:"len"`
	Cap    int `json:"cap"`
}

// StatszResponse is the /statsz body: request/status counters, session
// registry occupancy, the shared program cache, the session-layer
// counters summed over resident sessions, and the overload layer:
// admission limiter, breaker registry, memory watchdog.
type StatszResponse struct {
	UptimeSeconds    float64          `json:"uptime_seconds"`
	Requests         int64            `json:"requests"`
	StatusCounts     map[string]int64 `json:"status_counts"`
	Sessions         int              `json:"sessions"`
	SessionCap       int              `json:"session_cap"`
	SessionEvictions int64            `json:"session_evictions"`
	// Backends counts admitted /eval and /batch requests per evaluation
	// backend (resolved from X-Backend or the server default) over the
	// server's lifetime. SessionTotals.EvalsByBackend counts evaluations
	// after result-cache hits, but only those of the sessions still
	// resident: an evicted session's counts leave with it, so under
	// registry churn it reads a small fraction of Backends.
	Backends      map[string]int64        `json:"backends"`
	ProgramCache  ProgCacheStats          `json:"program_cache"`
	SessionTotals session.Stats           `json:"session_totals"`
	Admission     overload.LimiterStats   `json:"admission"`
	Breakers      BreakerTotals           `json:"breakers"`
	Watchdog      *overload.WatchdogStats `json:"watchdog,omitempty"`
}

// SessionTotals returns the session-layer counters summed over the
// resident sessions (evicted sessions' counters are gone with them).
// Each session is filed under exactly one fingerprint, so each counts
// once.
func (s *Server) SessionTotals() session.Stats {
	var t session.Stats
	for _, sess := range s.sessions.Values() {
		st := sess.Stats()
		t.Decompositions += st.Decompositions
		t.TupleNormalizations += st.TupleNormalizations
		t.NiceNormalizations += st.NiceNormalizations
		t.TDBuilds += st.TDBuilds
		t.Compiles += st.Compiles
		t.CompileCacheHits += st.CompileCacheHits
		t.Evals += st.Evals
		for k, v := range st.EvalsByBackend {
			if t.EvalsByBackend == nil {
				t.EvalsByBackend = map[string]int{}
			}
			t.EvalsByBackend[k] += v
		}
		t.ResultCacheHits += st.ResultCacheHits
		t.SolverSolves += st.SolverSolves
		t.SolverCacheHits += st.SolverCacheHits
		t.Invalidations += st.Invalidations
		t.DeltasApplied += st.DeltasApplied
	}
	return t
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	resp := StatszResponse{
		UptimeSeconds:    time.Since(s.start).Seconds(),
		Requests:         s.requests,
		StatusCounts:     make(map[string]int64, len(s.statuses)),
		Sessions:         s.sessions.Len(),
		SessionCap:       s.cfg.MaxSessions,
		SessionEvictions: int64(s.sessions.Stats().Evictions),
		Backends:         make(map[string]int64, len(s.backendReqs)),
	}
	for code, n := range s.statuses {
		resp.StatusCounts[strconv.Itoa(code)] = n
	}
	for name, n := range s.backendReqs {
		resp.Backends[name] = n
	}
	s.mu.Unlock()
	resp.SessionTotals = s.SessionTotals()
	hits, misses := s.progs.Stats()
	resp.ProgramCache = ProgCacheStats{Hits: hits, Misses: misses, Len: s.progs.Len(), Cap: s.progs.Cap()}
	resp.Admission = s.limiter.Stats()
	resp.Breakers = s.breakerTotals()
	if s.watchdog != nil {
		ws := s.watchdog.Stats()
		resp.Watchdog = &ws
	}
	s.reply(w, http.StatusOK, resp)
}

// newHTTPServer builds the hardened http.Server: read-header, read and
// idle timeouts (slowloris defense — a client trickling bytes must not
// hold a connection open indefinitely) and a header-size cap, resolved
// from the Config with 0 meaning the package default and negative
// meaning disabled. There is deliberately no WriteTimeout: response
// time is governed per request by the budget/deadline plumbing, and a
// blanket write timeout would kill legitimately long evaluations that
// the operator chose not to bound.
func (s *Server) newHTTPServer(base context.Context) *http.Server {
	resolve := func(v, def time.Duration) time.Duration {
		if v == 0 {
			return def
		}
		if v < 0 {
			return 0
		}
		return v
	}
	maxHeader := s.cfg.MaxHeaderBytes
	if maxHeader <= 0 {
		maxHeader = DefaultMaxHeaderBytes
	}
	return &http.Server{
		Handler:           s.Handler(),
		BaseContext:       func(net.Listener) context.Context { return base },
		ReadHeaderTimeout: resolve(s.cfg.ReadHeaderTimeout, DefaultReadHeaderTimeout),
		ReadTimeout:       resolve(s.cfg.ReadTimeout, DefaultReadTimeout),
		IdleTimeout:       resolve(s.cfg.IdleTimeout, DefaultIdleTimeout),
		MaxHeaderBytes:    maxHeader,
	}
}

// Run serves s on l until ctx is canceled, then drains: it stops
// accepting, waits up to grace for in-flight requests to finish, and
// only then cancels the base context — which aborts any evaluation that
// outlived the grace through the existing context plumbing (budget
// deadlines and evaluator polling), so handlers return promptly instead
// of being abandoned mid-computation. Returns nil after a clean drain.
func Run(ctx context.Context, l net.Listener, s *Server, grace time.Duration) error {
	base, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	hs := s.newHTTPServer(base)
	if s.watchdog != nil {
		go s.watchdog.Run(base)
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := hs.Shutdown(sctx)
	if err != nil {
		// The grace expired with requests still in flight. Abort their
		// evaluations through the context plumbing and give the
		// handlers one more grace to answer (they fail fast once their
		// context is canceled); only then force connections closed.
		cancelBase()
		sctx2, cancel2 := context.WithTimeout(context.Background(), grace)
		defer cancel2()
		if hs.Shutdown(sctx2) != nil {
			hs.Close()
		}
	}
	if serveErr := <-errc; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return nil
}
