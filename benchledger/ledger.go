package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// row is one ledger row: one run of one workload, with the environment
// it ran in.
type row struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Trace      bool                   `json:"trace"`
	Rev        string                 `json:"rev"`
	GoVersion  string                 `json:"go_version"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	NProc      int                    `json:"nproc"`
	Clients    int                    `json:"clients"`
	Seconds    float64                `json:"seconds"`
	SetupRuns  int                    `json:"setup_runs"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Metrics    map[string]metricValue `json:"metrics"`
	Extra      map[string]float64     `json:"extra,omitempty"`
	FirstError string                 `json:"first_error,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// buildRev is the VCS revision stamped into the binary, if any.
func buildRev() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev != "" && dirty {
		rev += "+dirty"
	}
	return rev
}

func newRow(opts options, fallbackRev string, o *outcome) row {
	rev := buildRev()
	if rev == "" {
		rev = fallbackRev
	}
	if rev == "" {
		rev = "unknown"
	}
	defs := endToEnd
	if opts.trace {
		defs = perLayer
	}
	r := row{
		Workload:   opts.workload,
		Seed:       opts.seed,
		Trace:      opts.trace,
		Rev:        rev,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Clients:    clients,
		Seconds:    opts.seconds.Seconds(),
		SetupRuns:  o.setups,
		Attempted:  o.attempted,
		Failed:     o.failed,
		Metrics:    map[string]metricValue{},
		Extra:      o.extra,
	}
	for _, d := range defs {
		r.Metrics[d.Name] = metricValue{Value: o.metrics[d.Name], Unit: d.Unit}
	}
	if o.firstErr != nil {
		r.FirstError = o.firstErr.Error()
	}
	return r
}

func writeRow(path string, r row) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readRows(paths []string) ([]row, error) {
	rows := make([]row, len(paths))
	for i, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(raw, &rows[i]); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
	}
	return rows, nil
}

// benchmarkFile is the part of BENCHMARK.json compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// minPairs is the pair count below which compare reports nothing but
// "unresolved".
const minPairs = 10

// verdict applies the A/B rule to one metric on one workload: base and
// change are the runs in pair order, bound the share of the base median
// by which the change may be worse.
func verdict(base, change []float64, better string, bound float64) (string, int) {
	n := len(base)
	if len(change) < n {
		n = len(change)
	}
	sign := 1.0 // positive when a larger value is worse
	if better == "higher" {
		sign = -1
	}
	won := 0
	for i := 0; i < n; i++ {
		if sign*(change[i]-base[i]) < 0 {
			won++
		}
	}
	if n < minPairs {
		return "unresolved", won
	}
	bq, cq := quartiles(base), quartiles(change)
	bMed, cMed := bq[1], cq[1]
	spread := bq[2] - bq[0]
	allBetter := true
	for _, c := range change {
		for _, b := range base {
			if sign*(c-b) >= 0 {
				allBetter = false
			}
		}
	}
	worse := sign * (cMed - bMed) / bMed
	switch {
	case 10*won >= 9*n && sign*(cMed-bMed) < 0 && abs(cMed-bMed) > spread:
		return "improved", won
	case worse > bound:
		return "regressed", won
	case spread/abs(bMed) > bound && !allBetter:
		return "unresolved", won
	}
	return "unchanged", won
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// quartiles returns the first quartile, median and third quartile of
// xs as Python's statistics.quantiles(xs, n=4) computes them (the
// "exclusive" method), for n ≥ 2.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// compare prints, per workload and end-to-end metric, both sides'
// medians and quartiles, the pairs the change won and a verdict. It
// reports whether any metric regressed.
func compare(w io.Writer, bench benchmarkFile, base, change []row) (bool, error) {
	byWorkload := func(rows []row) map[string][]row {
		m := map[string][]row{}
		for _, r := range rows {
			if !r.Trace {
				m[r.Workload] = append(m[r.Workload], r)
			}
		}
		return m
	}
	b, c := byWorkload(base), byWorkload(change)
	var names []string
	for name := range b {
		if _, ok := c[name]; ok {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return false, errors.New("compare: no workload has untraced rows on both sides")
	}
	sort.Strings(names)
	regressed := false
	fmt.Fprintf(w, "%-13s %-17s %28s %28s %7s  %s\n", "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "won", "verdict")
	for _, name := range names {
		for _, m := range bench.EndToEnd {
			bv, cv := values(b[name], m.Name), values(c[name], m.Name)
			v, won := verdict(bv, cv, m.Better, m.Bound)
			if v == "regressed" {
				regressed = true
			}
			n := len(bv)
			if len(cv) < n {
				n = len(cv)
			}
			bq, cq := quartiles(bv), quartiles(cv)
			fmt.Fprintf(w, "%-13s %-17s %28s %28s %3d/%-3d  %s\n", name, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", bq[1], bq[0], bq[2]),
				fmt.Sprintf("%.4g [%.4g, %.4g]", cq[1], cq[0], cq[2]), won, n, v)
		}
	}
	return regressed, nil
}

func values(rows []row, metric string) []float64 {
	out := make([]float64, len(rows))
	for i, r := range rows {
		out[i] = r.Metrics[metric].Value
	}
	return out
}

// splitArgs splits "a b -- c d" into the files before and after "--".
func splitArgs(args []string) (base, change []string, err error) {
	for i, a := range args {
		if a == "--" {
			base, change = args[:i], args[i+1:]
			if len(base) == 0 || len(change) == 0 {
				break
			}
			return base, change, nil
		}
	}
	return nil, nil, errors.New("compare wants base ledger files, then --, then change ledger files")
}
