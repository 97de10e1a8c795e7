// Command benchledger is the repository's benchmark: it measures
// monadicd end to end on four workloads and, in a traced run, layer by
// layer.
//
// Each run starts an in-process monadicd with server.Config{} defaults
// (what cmd/monadicd runs with) and drives it over loopback from this
// one process: a closed loop of two clients, each waiting for its
// reply, over at most two connections and with no client retries. The
// inputs come from -seed alone. The reported times are divided by the
// host slowdown a probe measures between ops (probe.go), so that they
// read as on the quiet reference machine. After the measured phase
// every answer is checked against an independent oracle; a wrong
// answer or a non-200 counts as failed and makes the command exit 1.
//
// Usage:
//
//	benchledger [-workload name|all] [-seed n] [-seconds s] [-trace 0|1] [-ledger dir] [-rev r]
//	benchledger -compare base.json... -- change.json...
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics, or
// with -trace 1 the per-layer ones. Each run also writes its ledger row
// under -ledger, and a traced run its spans. -compare applies the A/B
// rule of README.md, with the bounds in ./BENCHMARK.json, to ledger rows
// of two builds.
//
// Run it from the repository root with benchledger/run.sh, which builds
// it first; README.md lists the workloads, the metrics and the layer
// each per-layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchledger", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1 adds the traced passes and reports the per-layer metrics")
	ledgerDir := fs.String("ledger", filepath.Join(".bench_build", "ledger"), `directory for ledger rows and spans ("" writes none)`)
	rev := fs.String("rev", "", "revision to record when the binary carries no VCS stamp")
	cmp := fs.Bool("compare", false, "compare ledger rows: base.json... -- change.json...")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		return runCompare(stdout, stderr, fs.Args())
	}
	names := workloadNames
	if *workload != "all" {
		if _, err := newWorkload(*workload, *seed); err != nil {
			fmt.Fprintln(stderr, "benchledger:", err)
			return 2
		}
		names = []string{*workload}
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "benchledger: -trace takes 0 or 1")
		return 2
	}
	if *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "benchledger: -seconds must be positive and no arguments follow the flags")
		return 2
	}
	status := 0
	for _, name := range names {
		opts := options{
			workload: name,
			seed:     *seed,
			seconds:  time.Duration(*seconds * float64(time.Second)),
			trace:    *traceFlag == 1,
		}
		o, err := runWorkload(context.Background(), opts)
		if err != nil {
			fmt.Fprintf(stderr, "benchledger: %s: %v\n", name, err)
			return 2
		}
		r := newRow(opts, *rev, o)
		printRow(stdout, r, opts.trace)
		if r.FirstError != "" {
			fmt.Fprintf(stderr, "benchledger: %s: %d of %d ops failed; first: %s\n", name, r.Failed, r.Attempted, r.FirstError)
		}
		if *ledgerDir != "" {
			base := filepath.Join(*ledgerDir, fmt.Sprintf("%s-seed%d", name, *seed))
			if opts.trace {
				base += "-trace"
				// Tens of MB each: only the workload's latest traced run keeps
				// its spans.
				if err := writeSpans(filepath.Join(*ledgerDir, name+"-trace-spans.jsonl.gz"), o.spans); err != nil {
					fmt.Fprintln(stderr, "benchledger: write spans:", err)
					return 2
				}
			}
			if err := writeRow(base+".json", r); err != nil {
				fmt.Fprintln(stderr, "benchledger: write ledger row:", err)
				return 2
			}
		}
		if r.Failed > 0 {
			status = 1
		}
		line, err := json.Marshal(result{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics})
		if err != nil {
			fmt.Fprintln(stderr, "benchledger:", err)
			return 2
		}
		fmt.Fprintln(stdout, string(line))
	}
	return status
}

func printRow(w io.Writer, r row, traced bool) {
	fmt.Fprintf(w, "%s seed=%d trace=%v rev=%s %s gomaxprocs=%d nproc=%d clients=%d attempted=%d failed=%d setups=%d\n",
		r.Workload, r.Seed, r.Trace, r.Rev, r.GoVersion, r.GOMAXPROCS, r.NProc, r.Clients, r.Attempted, r.Failed, r.SetupRuns)
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-38s %14.6g %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	keys := make([]string, 0, len(r.Extra))
	for k := range r.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  (not gated) %-25s %14.6g\n", k, r.Extra[k])
	}
}

func runCompare(stdout, stderr io.Writer, args []string) int {
	baseFiles, changeFiles, err := splitArgs(args)
	if err != nil {
		fmt.Fprintln(stderr, "benchledger:", err)
		return 2
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "benchledger:", err)
		return 2
	}
	var bench benchmarkFile
	if err := json.Unmarshal(raw, &bench); err != nil {
		fmt.Fprintln(stderr, "benchledger: BENCHMARK.json:", err)
		return 2
	}
	base, err := readRows(baseFiles)
	if err != nil {
		fmt.Fprintln(stderr, "benchledger:", err)
		return 2
	}
	change, err := readRows(changeFiles)
	if err != nil {
		fmt.Fprintln(stderr, "benchledger:", err)
		return 2
	}
	regressed, err := compare(stdout, bench, base, change)
	if err != nil {
		fmt.Fprintln(stderr, "benchledger:", err)
		return 2
	}
	if regressed {
		return 1
	}
	return 0
}
