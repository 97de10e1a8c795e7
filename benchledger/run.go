package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a caller of monadicd sees, measured with
// tracing off. failed_frac and latency_p99_ms are printed too but not
// listed: the first is 0 on a correct run and the second has too few
// samples beyond it to gate on.
var endToEnd = []metricDef{
	{"throughput_ops_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"alloc_kb_per_op", "KiB", "lower"},
	{"live_heap_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the traced run's metrics. Times are per op of the pass
// that measured them; a layer a workload never reaches reads 0.
var perLayer = []metricDef{
	{"client.roundtrip_ms", "ms", "lower"},
	{"server.handle_ms", "ms", "lower"},
	{"server.self_ms", "ms", "lower"},
	{"server.transport_ms", "ms", "lower"},
	{"structure.parse_ms", "ms", "lower"},
	{"session.fingerprint_ms", "ms", "lower"},
	{"mso.parse_ms", "ms", "lower"},
	{"session.eval_ms", "ms", "lower"},
	{"session.eval_self_ms", "ms", "lower"},
	{"datalog.eval_ms", "ms", "lower"},
	{"datalog.facts_per_op", "count", "lower"},
	{"decompose.ms", "ms", "lower"},
	{"tree.normalize_tuple_ms", "ms", "lower"},
	{"tree.build_td_ms", "ms", "lower"},
	{"tree.normalize_nice_ms", "ms", "lower"},
	{"solver.solve_ms", "ms", "lower"},
	{"game.eval_ms", "ms", "lower"},
	{"game.positions_per_op", "count", "lower"},
	{"session.mutate_ms", "ms", "lower"},
	{"session.requery_ms", "ms", "lower"},
	{"session.delta_ratio", "ratio", "higher"},
	{"session.results_maintained_per_edit", "count", "higher"},
	{"session.result_hit_ratio", "ratio", "higher"},
	{"session.decompositions_per_op", "count", "lower"},
	{"core.compile_ms", "ms", "lower"},
	{"core.program_hit_ratio", "ratio", "higher"},
	{"overload.shed", "count", "lower"},
	{"overload.limit_final", "count", "higher"},
	{"client.retries", "count", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"runtime.allocs_per_op", "count", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// options configure one workload run.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// outcome is one workload run: its metrics and op accounting.
type outcome struct {
	metrics   map[string]float64
	extra     map[string]float64
	attempted int
	failed    int
	setups    int
	firstErr  error
	spans     map[string][]span // traced runs: spans per pass
}

// setUp starts a server and primes it; it returns the running service
// and how long that took.
func setUp(ctx context.Context, w *workload) (*service, *httpExec, time.Duration, error) {
	t0 := time.Now()
	svc, err := startService(nil)
	if err != nil {
		return nil, nil, 0, err
	}
	ex := newHTTPExec(svc.url, nil)
	if err := prime(ctx, w, ex); err != nil {
		ex.tr.CloseIdleConnections()
		svc.stop()
		return nil, nil, 0, err
	}
	return svc, ex, time.Since(t0), nil
}

// enoughSetups decides when set-up has been timed often enough: once
// for a traced run, which reports no setup_s; otherwise at least 3
// times, and more while the set-ups add up to under 1 s, up to 50, so
// a set-up of a few milliseconds still has a steady median.
func enoughSetups(times []time.Duration, traced bool) bool {
	if traced {
		return len(times) >= 1
	}
	var sum time.Duration
	for _, t := range times {
		sum += t
	}
	return len(times) >= 3 && (sum >= time.Second || len(times) >= 50)
}

// measured is an untraced pass with the process counters read around
// its measured drives, summed over them.
type measured struct {
	p         *pass
	cpu       time.Duration // the probe's, p.probeCPU, included
	allocB    uint64
	gcCPU     float64 // CPU seconds the GC spent
	totalCPU  float64 // CPU seconds available, as runtime/metrics counts them
	allocObjs uint64
	shed      int64
	limit     int // the server's concurrency limit after the last drive
}

// measure runs the measured pass with tracing off, starting on the
// primed server svc, and stops every server it used. A workload with
// segments runs them one after another, each on a freshly set-up server
// whose set-up time is added to setups, until dur has been measured;
// any other workload warms up, then runs for dur.
func measure(ctx context.Context, w *workload, svc *service, ex *httpExec, dur time.Duration, setups *[]time.Duration) (*measured, error) {
	m := &measured{p: newPass(w)}
	if w.segment == 0 {
		m.p.warmUp(ctx, ex, warmUp)
	}
	for {
		err := m.drive(ctx, ex, dur, w.segment)
		ex.tr.CloseIdleConnections()
		if stopErr := svc.stop(); err == nil && stopErr != nil {
			err = fmt.Errorf("stop server: %w", stopErr)
		}
		if err != nil {
			return nil, err
		}
		if w.segment == 0 || m.p.wall >= dur {
			return m, nil
		}
		runtime.GC()
		var d time.Duration
		if svc, ex, d, err = setUp(ctx, w); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		*setups = append(*setups, d)
	}
}

// drive runs one measured drive and adds the counters read around it.
func (m *measured) drive(ctx context.Context, ex *httpExec, dur time.Duration, limit int) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rt0 := readRuntime()
	cpu0 := cpuTime()
	m.p.wall += m.p.drive(ctx, ex, dur, limit, nil, true)
	cpu1 := cpuTime()
	rt1 := readRuntime()
	runtime.ReadMemStats(&m1)
	m.cpu += cpu1 - cpu0
	m.allocB += m1.TotalAlloc - m0.TotalAlloc
	m.gcCPU += rt1.gcCPU - rt0.gcCPU
	m.totalCPU += rt1.totalCPU - rt0.totalCPU
	m.allocObjs += rt1.allocObjs - rt0.allocObjs
	st, err := ex.plain.Statsz(ctx)
	if err != nil {
		return fmt.Errorf("statsz: %w", err)
	}
	m.shed += st.Admission.Shed
	m.limit = st.Admission.Limit
	return nil
}

type runtimeSample struct {
	gcCPU, totalCPU float64
	allocObjs       uint64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	var out runtimeSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		out.allocObjs = s[2].Value.Uint64()
	}
	return out
}

// runWorkload runs one workload: set-ups and the measured pass, and
// with opts.trace the traced HTTP and library passes as well. Answers
// of every pass are checked against the oracle afterwards.
func runWorkload(ctx context.Context, opts options) (*outcome, error) {
	w, err := newWorkload(opts.workload, opts.seed)
	if err != nil {
		return nil, err
	}
	if err := initProbe(); err != nil {
		return nil, err
	}
	dur := opts.seconds
	if opts.trace {
		// Three passes share the run's time.
		dur = opts.seconds / 3
	}
	svc, ex, d, err := setUp(ctx, w)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setups := []time.Duration{d}
	m, err := measure(ctx, w, svc, ex, dur, &setups)
	if err != nil {
		return nil, err
	}
	for !enoughSetups(setups, opts.trace) {
		runtime.GC()
		svc, ex, d, err := setUp(ctx, w)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		ex.tr.CloseIdleConnections()
		if err := svc.stop(); err != nil {
			return nil, fmt.Errorf("stop server: %w", err)
		}
		setups = append(setups, d)
	}
	or := newOracle()
	out := &outcome{setups: len(setups)}
	out.account(ctx, w, m.p, or)
	if !opts.trace {
		out.metrics, out.extra = endToEndMetrics(m, setups, out)
		return out, nil
	}
	tp, err := tracedPasses(ctx, w, dur)
	if err != nil {
		return nil, err
	}
	out.account(ctx, w, tp.http, or)
	out.account(ctx, w, tp.lib, or)
	out.metrics, out.extra = tp.layerMetrics(m)
	out.spans = map[string][]span{"http": tp.httpSpans, "library": tp.libSpans}
	return out, nil
}

// account adds a pass's ops to the run's totals, checking every answer.
func (o *outcome) account(ctx context.Context, w *workload, p *pass, or *oracle) {
	wrong, err := check(ctx, w, p, or)
	o.attempted += p.records()
	o.failed += wrong
	for _, r := range p.recs {
		for i := 0; i < r.n; i++ {
			if r.at(i).failed {
				o.failed++
			}
		}
		if o.firstErr == nil && r.firstErr != nil {
			o.firstErr = r.firstErr
		}
	}
	if o.firstErr == nil {
		o.firstErr = err
	}
}

// endToEndMetrics computes the end-to-end metrics. Times are divided by
// the run's host slowdown and throughput multiplied by it, so they read
// as on the quiet reference machine; the extras keep them as measured.
// Throughput is the closed loop's: clients times correct ops over the
// summed latency, which the probe pauses, falling between ops, leave
// alone.
func endToEndMetrics(m *measured, setups []time.Duration, o *outcome) (map[string]float64, map[string]float64) {
	ops := float64(m.p.ops())
	lat := m.p.latencies()
	var busy float64
	for _, l := range lat {
		busy += l
	}
	secs := make([]float64, len(setups))
	for i, d := range setups {
		secs[i] = d.Seconds()
	}
	failed := float64(o.failed)
	raw := map[string]float64{
		"throughput_ops_s": clients * (ops - failed) / (busy / 1000),
		"latency_p50_ms":   percentile(lat, 0.50),
		"latency_p90_ms":   percentile(lat, 0.90),
		"cpu_ms_per_op":    ms(m.cpu-m.p.probeCPU) / ops,
		"setup_s":          median(secs),
	}
	slow := slowdown(m.p.probes)
	out := map[string]float64{
		"alloc_kb_per_op": float64(m.allocB) / 1024 / ops,
		"live_heap_mb":    median(m.p.liveHeap),
	}
	extra := map[string]float64{
		"host_slowdown":      slow,
		"probe_slices":       float64(len(m.p.probes)),
		"latency_p99_ms":     percentile(lat, 0.99) / slow,
		"failed_frac":        failed / float64(o.attempted),
		"samples":            ops,
		"samples_beyond_p90": float64(len(lat) - int(math.Ceil(0.90*float64(len(lat))))),
		"measured_s":         m.p.wall.Seconds(),
		"setup_runs":         float64(len(setups)),
	}
	for k, s := range kernelSlowdowns(m.p.probes) {
		extra["probe."+kernels[k].name] = s
	}
	for name, v := range raw {
		extra["measured."+name] = v
		if name == "throughput_ops_s" {
			out[name] = v * slow
		} else {
			out[name] = v / slow
		}
	}
	return out, extra
}

// percentile is the nearest-rank percentile of sorted xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
