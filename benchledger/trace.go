package main

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/domset"
	"repro/internal/graph"
	"repro/internal/mso"
	"repro/internal/server"
	"repro/internal/session"
	"repro/internal/solver"
	"repro/internal/stage"
	"repro/internal/structure"
	"repro/internal/threecol"
	"repro/internal/vcover"
	"repro/internal/wis"
)

// span is one timed call at a layer boundary. Spans of one op share Op;
// Parent is the span that caused this one (0 for an op's root span).
// Times are nanoseconds since the tracer's epoch.
type span struct {
	Op     int64  `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Size   int    `json:"size,omitempty"`
	Cached bool   `json:"cached,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

// add stores s, assigning an ID when it has none, and returns the ID.
func (t *tracer) add(s span) int64 {
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// done returns the spans; call it once nothing records any more.
func (t *tracer) done() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// writeSpans writes the spans of every pass as gzipped JSON lines, one
// span per line, tagged with its pass.
func writeSpans(path string, passes map[string][]span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	enc := json.NewEncoder(zw)
	for _, name := range []string{"http", "library"} {
		for _, s := range passes[name] {
			if err := enc.Encode(struct {
				Pass string `json:"pass"`
				span
			}{name, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// HTTP pass instrumentation. The client transport tags each request
// with its op and span ids, which the server-side wrapper reads back,
// so the two sides' spans of one exchange are linked.
const (
	hdrOp   = "X-Bench-Op"
	hdrSpan = "X-Bench-Span"
)

type tracingTransport struct {
	base     http.RoundTripper
	t        *tracer
	attempts atomic.Int64
}

func (tt *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tt.attempts.Add(1)
	ref, _ := req.Context().Value(opKey{}).(opRef)
	id := tt.t.newID()
	r := req.Clone(req.Context())
	r.Header.Set(hdrOp, strconv.FormatInt(ref.op, 10))
	r.Header.Set(hdrSpan, strconv.FormatInt(id, 10))
	start := time.Now()
	resp, err := tt.base.RoundTrip(r)
	if err != nil {
		tt.t.add(span{Op: ref.op, ID: id, Parent: ref.span, Name: "client.roundtrip", Start: tt.t.at(start), End: tt.t.at(time.Now())})
		return nil, err
	}
	// The exchange ends when the client has read and closed the body.
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		tt.t.add(span{Op: ref.op, ID: id, Parent: ref.span, Name: "client.roundtrip", Start: tt.t.at(start), End: tt.t.at(time.Now())})
	}}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		op, _ := strconv.ParseInt(r.Header.Get(hdrOp), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		t.add(span{Op: op, Parent: parent, Name: "server.handle", Start: t.at(start), End: t.at(end)})
	})
}

// library runs each op through the layers' public functions, the way
// the server's handlers call them, against its own session registry,
// recording a span around every call. It is the library pass of a
// traced run.
type library struct {
	t     *tracer
	progs *session.ProgramCache

	mu       sync.Mutex
	sessions map[uint64]*session.Session
	order    []uint64

	edits, deltas, maintained atomic.Int64
}

func newLibrary(t *tracer) *library {
	return &library{t: t, progs: session.NewProgramCache(), sessions: map[uint64]*session.Session{}}
}

// sessionFor is the server's registry policy: one session per content
// fingerprint, FIFO eviction at the default cap.
func (l *library) sessionFor(fp uint64, st *structure.Structure) *session.Session {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s, ok := l.sessions[fp]; ok {
		return s
	}
	if len(l.order) >= server.DefaultMaxSessions {
		delete(l.sessions, l.order[0])
		l.order = l.order[1:]
	}
	s := session.NewWithCache(st, l.progs)
	l.sessions[fp] = s
	l.order = append(l.order, fp)
	return s
}

// rekey files sess under fp as well, as /mutate does for the post-edit
// text.
func (l *library) rekey(old, fp uint64, sess *session.Session) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sessions[old] == sess && old != fp {
		delete(l.sessions, old)
		for i, k := range l.order {
			if k == old {
				l.order = append(l.order[:i], l.order[i+1:]...)
				break
			}
		}
	}
	if _, ok := l.sessions[fp]; !ok {
		l.sessions[fp] = sess
		l.order = append(l.order, fp)
	}
}

// timed runs f inside a span named name under parent.
func (l *library) timed(ref opRef, name string, f func() error) error {
	start := time.Now()
	err := f()
	l.t.add(span{Op: ref.op, Parent: ref.span, Name: name, Start: l.t.at(start), End: l.t.at(time.Now())})
	return err
}

// stageSpan names the layer of each stage a Result.Trace reports.
var stageSpan = map[stage.Stage]string{
	stage.Decompose:      "decompose",
	stage.NormalizeTuple: "tree.normalize_tuple",
	stage.BuildTD:        "tree.build_td",
	stage.NormalizeNice:  "tree.normalize_nice",
	stage.Compile:        "core.compile",
	stage.Eval:           "datalog.eval",
	stage.Game:           "game.eval",
}

// parse is structure.Parse then session.Fingerprint, each spanned.
func (l *library) parse(ref opRef, src string) (*structure.Structure, uint64, error) {
	var st *structure.Structure
	err := l.timed(ref, "structure.parse", func() (err error) {
		st, err = structure.Parse(src, nil)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	var fp uint64
	_ = l.timed(ref, "session.fingerprint", func() error {
		fp = session.Fingerprint(st)
		return nil
	})
	return st, fp, nil
}

// eval runs (*Session).Eval in a span named name; the stage stats of
// the Result's trace become its child spans, laid end to end from the
// span's start.
func (l *library) eval(ctx context.Context, ref opRef, name string, sess *session.Session, formula, backend string) (string, error) {
	var phi *mso.Formula
	if err := l.timed(ref, "mso.parse", func() (err error) {
		phi, err = mso.Parse(formula)
		return err
	}); err != nil {
		return "", err
	}
	if backend != "" {
		// Alternate backends evaluate on the nice form; building it here
		// first gives decompose and normalize-nice their own spans.
		if err := l.frontEnd(ctx, ref, sess); err != nil {
			return "", err
		}
	}
	id := l.t.newID()
	start := time.Now()
	res, err := sess.Eval(ctx, phi, "x", core.Options{Backend: backend})
	end := time.Now()
	l.t.add(span{Op: ref.op, ID: id, Parent: ref.span, Name: name, Start: l.t.at(start), End: l.t.at(end)})
	if err != nil {
		return "", err
	}
	at := l.t.at(start)
	for _, s := range res.Trace.Stats {
		l.t.add(span{Op: ref.op, Parent: id, Name: stageSpan[s.Stage], Start: at, End: at + int64(s.Wall), Size: s.Size, Cached: s.CacheHit})
		at += int64(s.Wall)
	}
	var out string
	sess.View(func(st *structure.Structure) { out = renderSelected(names(st, res.Selected)) })
	return out, nil
}

// frontEnd builds the raw and nice decompositions in spans of their
// own, marking a span cached when the session already held the form.
func (l *library) frontEnd(ctx context.Context, ref opRef, sess *session.Session) error {
	before := sess.Stats()
	start := time.Now()
	if _, err := sess.Decomposition(ctx); err != nil {
		return err
	}
	mid := time.Now()
	if _, err := sess.NiceForm(ctx); err != nil {
		return err
	}
	end := time.Now()
	after := sess.Stats()
	l.t.add(span{Op: ref.op, Parent: ref.span, Name: "decompose", Start: l.t.at(start), End: l.t.at(mid), Cached: after.Decompositions == before.Decompositions})
	l.t.add(span{Op: ref.op, Parent: ref.span, Name: "tree.normalize_nice", Start: l.t.at(mid), End: l.t.at(end), Cached: after.NiceNormalizations == before.NiceNormalizations})
	return nil
}

func (l *library) do(ctx context.Context, ref opRef, o op, cur *string) (uint64, error) {
	switch o.kind {
	case opEval:
		st, fp, err := l.parse(ref, o.eval.Structure)
		if err != nil {
			return 0, err
		}
		out, err := l.eval(ctx, ref, "session.eval", l.sessionFor(fp, st), o.eval.Formula, o.backend)
		return hashString(out), err
	case opBatch:
		sessions := make([]*session.Session, len(o.batch.Structures))
		for i, src := range o.batch.Structures {
			st, fp, err := l.parse(ref, src)
			if err != nil {
				return 0, err
			}
			sessions[i] = l.sessionFor(fp, st)
		}
		parts := make([]string, len(o.batch.Queries))
		for i, q := range o.batch.Queries {
			out, err := l.eval(ctx, ref, "session.eval", sessions[q.Structure], q.Formula, o.backend)
			if err != nil {
				return 0, err
			}
			parts[i] = "200 " + out
		}
		return hashString(strings.Join(parts, "|")), nil
	case opSolve:
		st, fp, err := l.parse(ref, o.solve.Structure)
		if err != nil {
			return 0, err
		}
		sess := l.sessionFor(fp, st)
		if err := l.frontEnd(ctx, ref, sess); err != nil {
			return 0, err
		}
		var out string
		err = l.timed(ref, "solver.solve", func() (err error) {
			out, err = librarySolve(ctx, sess, o.solve)
			return err
		})
		return hashString(out), err
	case opEdit:
		return l.edit(ctx, ref, o, cur)
	}
	return 0, fmt.Errorf("unknown op kind %d", o.kind)
}

// edit is the /mutate handler's sequence, then the requery's.
func (l *library) edit(ctx context.Context, ref opRef, o op, cur *string) (uint64, error) {
	st, fp, err := l.parse(ref, *cur)
	if err != nil {
		return 0, err
	}
	sess := l.sessionFor(fp, st)
	var ms session.MutationStats
	err = l.timed(ref, "session.mutate", func() (err error) {
		ms, err = sess.Mutate(func(st *structure.Structure) error {
			for _, f := range o.edit.Remove {
				st.RemoveFact(f.Pred, f.Args...)
			}
			for _, f := range o.edit.Insert {
				if err := st.AddFact(f.Pred, f.Args...); err != nil {
					return err
				}
			}
			return nil
		})
		return err
	})
	if err != nil {
		return 0, err
	}
	l.edits.Add(1)
	if ms.DeltaApplied {
		l.deltas.Add(1)
	}
	l.maintained.Add(int64(ms.ResultsMaintained))
	sess.View(func(st *structure.Structure) { *cur = st.String() })
	_, postFP, err := l.parse(ref, *cur)
	if err != nil {
		return 0, err
	}
	l.rekey(fp, postFP, sess)
	// The requery is a separate /eval request carrying the post-edit text.
	post, postFP, err := l.parse(ref, *cur)
	if err != nil {
		return 0, err
	}
	out, err := l.eval(ctx, ref, "session.requery", l.sessionFor(postFP, post), o.requery, "")
	return hashString(*cur + "\x00" + out), err
}

// librarySolve is the /solve handler's problem dispatch.
func librarySolve(ctx context.Context, sess *session.Session, req server.SolveRequest) (string, error) {
	var g *graph.Graph
	sess.View(func(st *structure.Structure) { g = graph.Primal(st) })
	var p solver.Problem[uint64]
	switch req.Problem {
	case "threecol":
		p = threecol.Problem(g, 3)
	case "vcover":
		p = vcover.Problem(g)
	case "domset":
		p = domset.Problem(g)
	case "wis":
		var err error
		if p, err = wis.Problem(g, req.Weights); err != nil {
			return "", err
		}
	default:
		return "", fmt.Errorf("unknown problem %q", req.Problem)
	}
	var resp server.SolveResponse
	switch req.Mode {
	case "decide":
		ok, err := session.SolveDecide(ctx, sess, p)
		if err != nil {
			return "", err
		}
		resp.OK = &ok
	case "count":
		n, err := session.SolveCount(ctx, sess, p)
		if err != nil {
			return "", err
		}
		resp.Count = n.String()
	case "optimize":
		der, err := session.SolveOptimize(ctx, sess, p)
		if err != nil {
			return "", err
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
		return "", fmt.Errorf("unknown mode %q", req.Mode)
	}
	return renderSolve(&resp), nil
}
