package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

type benchJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// maxBound is the widest bound each end-to-end metric may have. The
// times get 25%, the most the benchmark's definition allows: on the
// shared 2-vCPU reference machine their spread over ten runs, after
// the host-speed probe's correction, reached 18% in busy sets, against
// 20–38% as measured (README.md). Allocation and the live heap spread
// under 5%; they keep tighter bounds.
var maxBound = map[string]float64{
	"throughput_ops_s": 0.25,
	"latency_p50_ms":   0.25,
	"latency_p90_ms":   0.25,
	"cpu_ms_per_op":    0.25,
	"alloc_kb_per_op":  0.10,
	"live_heap_mb":     0.15,
	"setup_s":          0.25,
}

// TestBenchmarkDefinition holds BENCHMARK.json and the code to the same
// workloads and metrics.
func TestBenchmarkDefinition(t *testing.T) {
	b := readBenchmark(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, code runs %v", names, workloadNames)
	}
	var e2e []metricDef
	largest := 0.0
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > maxBound[m.Name] {
			t.Errorf("%s: bound %v outside (0, %v]", m.Name, m.Bound, maxBound[m.Name])
		}
		largest = math.Max(largest, m.Bound)
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && m.Bound != largest {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, largest)
		}
	}
	for _, c := range []struct {
		kind       string
		json, code []metricDef
	}{{"end_to_end", e2e, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", c.kind, len(c.json), len(c.code))
		}
		for i := range c.json {
			if c.json[i] != c.code[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, code %+v", c.kind, i, c.json[i], c.code[i])
			}
			if !metricName.MatchString(c.code[i].Name) {
				t.Errorf("metric name %q", c.code[i].Name)
			}
		}
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchledger" || strings.Join(b.Command, " ") != "bash benchledger/run.sh" {
		t.Errorf("paths %v, command %v", b.Paths, b.Command)
	}
}

// TestWorkloadsSmall runs every workload traced at 1/20 of the
// benchmark's run length and checks the invariants each one exists for.
func TestWorkloadsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the servers")
	}
	seconds := time.Duration(readBenchmark(t).RunSeconds) * time.Second / 20
	want := map[string]map[string]float64{
		"hot-read":     {"session.result_hit_ratio": 1, "session.decompositions_per_op": 0},
		"cold-read":    {"session.result_hit_ratio": 0, "session.decompositions_per_op": 1, "core.program_hit_ratio": 1},
		"edit-requery": {"session.delta_ratio": 1, "session.results_maintained_per_edit": 2},
		"cold-dp":      {"session.decompositions_per_op": 1, "datalog.eval_ms": 0, "core.compile_ms": 0},
	}
	for _, name := range workloadNames {
		o, err := runWorkload(context.Background(), options{workload: name, seed: 3, seconds: seconds, trace: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if o.attempted == 0 || o.failed != 0 {
			t.Errorf("%s: %d of %d ops failed: %v", name, o.failed, o.attempted, o.firstErr)
		}
		for m, v := range want[name] {
			if got := o.metrics[m]; got != v {
				t.Errorf("%s: %s = %v, want %v", name, m, got, v)
			}
		}
	}
}

// TestOpLists checks the properties the op lists are built for: an
// edit list leaves its path as it found it, and the cold workloads'
// lists hold more structures than the server's session registry, so
// that an op stays cold when a list starts over.
func TestOpLists(t *testing.T) {
	w, err := newWorkload("edit-requery", 2)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < clients; c++ {
		st := w.resident(c)
		want := st.String()
		for _, o := range w.ops(c) {
			for _, f := range o.edit.Remove {
				if !st.RemoveFact(f.Pred, f.Args...) {
					t.Fatalf("client %d: removes absent %v", c, f)
				}
			}
			for _, f := range o.edit.Insert {
				if err := st.AddFact(f.Pred, f.Args...); err != nil {
					t.Fatal(err)
				}
			}
		}
		if st.String() != want {
			t.Errorf("client %d: the path differs after its whole list", c)
		}
	}
	for _, name := range []string{"cold-read", "cold-dp"} {
		w, err := newWorkload(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for c := 0; c < clients; c++ {
			for _, o := range w.ops(c) {
				seen[o.eval.Structure+o.solve.Structure] = true
			}
		}
		if len(seen) < 2*server.DefaultMaxSessions {
			t.Errorf("%s: %d distinct structures, want at least %d", name, len(seen), 2*server.DefaultMaxSessions)
		}
	}
}

// TestOutput checks what the command prints: every metric by name and
// unit, then the result line.
func TestOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the servers")
	}
	b := readBenchmark(t)
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		code := realMain([]string{"-workload", "cold-dp", "-seed", "5", "-seconds", "0.6", "-trace", trace, "-ledger", t.TempDir()}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line: %v", trace, err)
		}
		defs := b.PerLayer
		if trace == "0" {
			defs = nil
			for _, m := range b.EndToEnd {
				defs = append(defs, m.metricDef)
			}
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(defs) {
			t.Errorf("trace %s: result %+v", trace, res)
		}
		for _, d := range defs {
			if res.Metrics[d.Name].Unit != d.Unit {
				t.Errorf("trace %s: %s has unit %q, want %q", trace, d.Name, res.Metrics[d.Name].Unit, d.Unit)
			}
			if !regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(d.Name) + ` .* ` + regexp.QuoteMeta(d.Unit) + `$`).MatchString(stdout.String()) {
				t.Errorf("trace %s: %s not printed with its unit", trace, d.Name)
			}
		}
	}
}

// TestOracleCatchesCorruption flips one recorded answer and expects the
// oracle to count it.
func TestOracleCatchesCorruption(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a server")
	}
	ctx := context.Background()
	w, err := newWorkload("cold-dp", 1)
	if err != nil {
		t.Fatal(err)
	}
	svc, ex, _, err := setUp(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	p := newPass(w)
	p.drive(ctx, ex, 300*time.Millisecond, 0, nil, false)
	ex.tr.CloseIdleConnections()
	if err := svc.stop(); err != nil {
		t.Fatal(err)
	}
	if wrong, err := check(ctx, w, p, newOracle()); wrong != 0 || err != nil {
		t.Fatalf("clean pass: %d wrong: %v", wrong, err)
	}
	p.recs[1].chunks[0][0].answer ^= 1
	o := &outcome{}
	o.account(ctx, w, p, newOracle())
	if o.failed != 1 || o.firstErr == nil {
		t.Fatalf("corrupted pass: %d failed, first error %v", o.failed, o.firstErr)
	}
}

// TestProbe checks that the probe's memory stays off the Go heap and
// that its kernels run near their nominal times. With -v it logs each
// kernel's median unit time, from which the nominal times were taken.
func TestProbe(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := initProbe(); err != nil {
		t.Fatal(err)
	}
	var slices []kernelTimes
	for i := 0; i < 20; i++ {
		s, cpu := probeSlice()
		if cpu <= 0 {
			t.Fatalf("slice %d used no CPU", i)
		}
		slices = append(slices, s)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 1<<20 {
		t.Errorf("the heap grew by %d bytes", grew)
	}
	for k, kn := range kernels {
		ts := make([]float64, len(slices))
		for i, s := range slices {
			ts[i] = s[k]
		}
		t.Logf("%-12s median %v, nominal %v", kn.name, time.Duration(median(ts)), kn.nominal)
	}
	// A shared machine may run slower, but not 3 times slower, and the
	// kernels cannot run 3 times faster than on the reference machine
	// unless they stopped doing their work.
	if s := slowdown(slices); s < 1.0/3 || s > 3 {
		t.Errorf("slowdown %v", s)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		// statistics.quantiles(in, n=4)
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 4, 7}, [3]float64{2.375, 4, 8}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	series := func(base float64, step float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = base + step*float64(i%5)
		}
		return out
	}
	base := series(100, 1) // IQR ≈ 2.5% of the median
	for _, c := range []struct {
		change []float64
		better string
		want   string
	}{
		{series(90, 1), "lower", "improved"},
		{series(90, 1), "higher", "regressed"},
		{series(101, 1), "lower", "unchanged"},
		{series(101, 1)[:5], "lower", "unresolved"},
	} {
		if got, _ := verdict(base, c.change, c.better, 0.05); got != c.want {
			t.Errorf("verdict(%v, better %s) = %s, want %s", c.change, c.better, got, c.want)
		}
	}
	if got, _ := verdict(series(100, 10), series(101, 10), "lower", 0.05); got != "unresolved" {
		t.Errorf("wide spread: %s, want unresolved", got)
	}
}
