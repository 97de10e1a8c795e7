package main

import (
	"context"
	"fmt"
	"net/http"
	"time"
)

// traced holds the two traced passes: the same op lists replayed
// over HTTP with a span at each side of every exchange, then through
// the library layers directly.
type traced struct {
	http, lib           *pass
	httpSpans, libSpans []span
	attempts, calls     int64 // HTTP exchanges and client calls
	edits, deltas, kept int64 // library pass edit receipts
}

// tracedPasses runs the two traced passes, each on a fresh server or
// registry. Like the measured pass, each warms up and then runs for dur,
// or, for a workload with segments, runs one segment.
func tracedPasses(ctx context.Context, w *workload, dur time.Duration) (*traced, error) {
	tp := &traced{}

	th := newTracer()
	svc, err := startService(th.handler)
	if err != nil {
		return nil, err
	}
	var tt *tracingTransport
	ex := newHTTPExec(svc.url, func(rt http.RoundTripper) http.RoundTripper {
		tt = &tracingTransport{base: rt, t: th}
		return tt
	})
	err = prime(ctx, w, ex)
	if err == nil {
		tp.http = newPass(w)
		if w.segment == 0 {
			tp.http.warmUp(ctx, ex, warmUp)
		}
		tt.attempts.Store(0)
		ex.calls.Store(0)
		tp.http.drive(ctx, ex, dur, w.segment, th, false)
		tp.attempts, tp.calls = tt.attempts.Load(), ex.calls.Load()
	}
	ex.tr.CloseIdleConnections()
	if stopErr := svc.stop(); err == nil && stopErr != nil {
		err = stopErr
	}
	if err != nil {
		return nil, fmt.Errorf("traced HTTP pass: %w", err)
	}
	tp.httpSpans = th.done()

	tl := newTracer()
	lib := newLibrary(tl)
	if err := prime(ctx, w, lib); err != nil {
		return nil, fmt.Errorf("library pass: %w", err)
	}
	tp.lib = newPass(w)
	if w.segment == 0 {
		tp.lib.warmUp(ctx, lib, warmUp)
	}
	lib.edits.Store(0)
	lib.deltas.Store(0)
	lib.maintained.Store(0)
	tp.lib.drive(ctx, lib, dur, w.segment, tl, false)
	tp.libSpans = tl.done()
	tp.edits, tp.deltas, tp.kept = lib.edits.Load(), lib.deltas.Load(), lib.maintained.Load()
	return tp, nil
}

// spanTotals aggregates one pass's spans by name, leaving out set-up
// spans (op id -1).
type spanTotals struct {
	ops    float64
	dur    map[string]time.Duration
	count  map[string]int
	cached map[string]int
	size   map[string]int // summed over uncached spans
	// self is each span's duration minus its children's, by name.
	self map[string]time.Duration
	// byOp sums, per op, the spans totals was asked for.
	byOp map[int64]time.Duration
	// evalStages sums the decompose, normalize-tuple, build-td and eval
	// stage spans under session.eval spans.
	evalStages time.Duration
}

var coveredStages = map[string]bool{"decompose": true, "tree.normalize_tuple": true, "tree.build_td": true, "datalog.eval": true}

// totals aggregates spans over ops ops. byOp sums the spans named
// opSpan, or with opSpan "" the spans directly under each op's root.
func totals(spans []span, ops int, opSpan string) *spanTotals {
	t := &spanTotals{
		ops:    float64(ops),
		dur:    map[string]time.Duration{},
		count:  map[string]int{},
		cached: map[string]int{},
		size:   map[string]int{},
		self:   map[string]time.Duration{},
		byOp:   map[int64]time.Duration{},
	}
	roots := map[int64]bool{}
	evals := map[int64]bool{}
	children := map[int64]time.Duration{}
	for _, s := range spans {
		if s.Op < 0 {
			continue
		}
		switch s.Name {
		case "op":
			roots[s.ID] = true
		case "session.eval":
			evals[s.ID] = true
		}
		children[s.Parent] += s.dur()
	}
	for _, s := range spans {
		if s.Op < 0 {
			continue
		}
		t.dur[s.Name] += s.dur()
		t.count[s.Name]++
		t.self[s.Name] += s.dur() - children[s.ID]
		if s.Cached {
			t.cached[s.Name]++
		} else {
			t.size[s.Name] += s.Size
		}
		if s.Name == opSpan || (opSpan == "" && roots[s.Parent]) {
			t.byOp[s.Op] += s.dur()
		}
		if evals[s.Parent] && coveredStages[s.Name] {
			t.evalStages += s.dur()
		}
	}
	return t
}

// perOp is the mean time per op spent in spans called name, in ms.
func (t *spanTotals) perOp(name string) float64 { return ms(t.dur[name]) / t.ops }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func meanLatency(p *pass) float64 {
	var sum time.Duration
	for c, r := range p.recs {
		for i := p.from[c]; i < r.n; i++ {
			sum += r.at(i).lat
		}
	}
	return ms(sum) / float64(p.ops())
}

// layerMetrics computes the per-layer metrics: span times from the
// traced passes, counters from the untraced pass m.
func (tp *traced) layerMetrics(m *measured) (map[string]float64, map[string]float64) {
	h := totals(tp.httpSpans, tp.http.ops(), "server.handle")
	l := totals(tp.libSpans, tp.lib.ops(), "")

	// server.self: an op's handler time minus the same op's library time.
	var self time.Duration
	matched := 0
	for op, handle := range h.byOp {
		if lib, ok := l.byOp[op]; ok {
			self += handle - lib
			matched++
		}
	}

	out := map[string]float64{
		"client.roundtrip_ms":                 h.perOp("client.roundtrip"),
		"server.handle_ms":                    h.perOp("server.handle"),
		"server.self_ms":                      ratio(ms(self), float64(matched)),
		"server.transport_ms":                 h.perOp("client.roundtrip") - h.perOp("server.handle"),
		"structure.parse_ms":                  l.perOp("structure.parse"),
		"session.fingerprint_ms":              l.perOp("session.fingerprint"),
		"mso.parse_ms":                        l.perOp("mso.parse"),
		"session.eval_ms":                     l.perOp("session.eval"),
		"session.eval_self_ms":                ms(l.self["session.eval"]) / l.ops,
		"datalog.eval_ms":                     l.perOp("datalog.eval"),
		"datalog.facts_per_op":                float64(l.size["datalog.eval"]) / l.ops,
		"decompose.ms":                        l.perOp("decompose"),
		"tree.normalize_tuple_ms":             l.perOp("tree.normalize_tuple"),
		"tree.build_td_ms":                    l.perOp("tree.build_td"),
		"tree.normalize_nice_ms":              l.perOp("tree.normalize_nice"),
		"solver.solve_ms":                     l.perOp("solver.solve"),
		"game.eval_ms":                        l.perOp("game.eval"),
		"game.positions_per_op":               float64(l.size["game.eval"]) / l.ops,
		"session.mutate_ms":                   l.perOp("session.mutate"),
		"session.requery_ms":                  l.perOp("session.requery"),
		"session.delta_ratio":                 ratio(float64(tp.deltas), float64(tp.edits)),
		"session.results_maintained_per_edit": ratio(float64(tp.kept), float64(tp.edits)),
		"session.result_hit_ratio": ratio(float64(l.cached["datalog.eval"]),
			float64(l.count["datalog.eval"]+l.count["game.eval"])),
		"session.decompositions_per_op": float64(l.count["decompose"]-l.cached["decompose"]) / l.ops,
		"core.compile_ms":               l.perOp("core.compile"),
		"core.program_hit_ratio":        ratio(float64(l.cached["core.compile"]), float64(l.count["core.compile"])),
		"overload.shed":                 float64(m.shed),
		"overload.limit_final":          float64(m.limit),
		"client.retries":                float64(tp.attempts - tp.calls),
		"runtime.gc_cpu_frac":           ratio(m.gcCPU, m.totalCPU),
		"runtime.allocs_per_op":         float64(m.allocObjs) / float64(m.p.ops()),
		"trace.overhead_frac":           meanLatency(tp.http)/meanLatency(m.p) - 1,
	}
	extra := map[string]float64{
		"http_ops":     h.ops,
		"library_ops":  l.ops,
		"untraced_ops": float64(m.p.ops()),
		// The share of the (*Session).Eval spans that their stage stats
		// (decompose, normalize-tuple, build-td, eval) account for.
		"session.eval_stage_coverage": ratio(float64(l.evalStages), float64(l.dur["session.eval"])),
	}
	return out, extra
}
