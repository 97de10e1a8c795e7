// Command benchtable regenerates the paper's Table 1 (Section 6):
// PRIMALITY processing time of the monadic-datalog program (MD) against
// the budget-capped naive MSO baseline (the MONA substitute), on balanced
// treewidth-3 workloads. Its other modes write the repository's
// committed and CI-checked benchmark artifacts.
//
//	benchtable [-fds 1,2,3,...] [-seed n] [-budget steps] [-skipmona] [-reps n]
//	benchtable -ra n
//	benchtable -soak n [-soakDur d]
//	benchtable -game n
//
// Each MD measurement is the median of -reps runs. The -ra mode compares
// the streaming engine's direct fixpoint with the Theorem 4.4 grounding
// on an n-bag τ_td chain (allocation volume and wall time), and
// demonstrates a MaxGroundAtoms-capped run completing on the direct
// streaming path; with -json it writes the BENCH_ra.json artifact. The
// -soak mode is the overload-control chaos experiment: n clients of mixed
// traffic for -soakDur against an in-process server sized for ~half
// that concurrency, with fault injection armed (FAULTINJECT, or a
// default seeded plan) and a poison driver forcing circuit-breaker
// cycles; it asserts that every overload rejection carried Retry-After,
// no 5xx other than injected ones appeared, at least one full breaker
// open→half-open→close cycle happened, the admitted-request p50 stayed
// within 2× the unloaded p50, heap stayed bounded, and the goroutine
// count returned to baseline after drain — any violation fails the run.
// The -game mode runs the automaton/game backend head-to-head on
// n-element workloads — agreement on every feasible point, then the
// MaxStates-escape point where the automaton dies on its states budget
// and the game backend completes correctly; any disagreement or a
// missing escape fails the run.
//
// With -json, the active mode also writes a machine-readable
// BENCH_<mode>.json report into -jsondir. -timeout bounds the whole run.
// The engine, pipeline and session timings are Go benchmarks
// (BenchmarkTCPath1000, BenchmarkPipeline, BenchmarkSessionReuse), and
// benchledger measures the server end to end.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/workload"
)

func main() {
	fdsSpec := flag.String("fds", "", "comma-separated #FD column (default: the paper's values)")
	seed := flag.Int64("seed", 1, "workload seed")
	budget := flag.Int64("budget", bench.MonaBudget, "baseline step budget")
	skipMona := flag.Bool("skipmona", false, "skip the baseline column")
	reps := flag.Int("reps", 3, "repetitions per MD measurement (median reported)")
	ra := flag.Int("ra", 0, "instead compare the streaming engine with grounding on an n-bag τ_td chain")
	soakN := flag.Int("soak", 0, "instead soak-test overload control with n clients (try 2x capacity: 16)")
	gameN := flag.Int("game", 0, "instead run the automaton/game backend head-to-head on n-element workloads")
	soakDur := flag.Duration("soakDur", 8*time.Second, "load-phase duration for -soak mode")
	jsonOut := flag.Bool("json", false, "also write a BENCH_<mode>.json report")
	jsonDir := flag.String("jsondir", ".", "directory for -json reports")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = none)")
	flag.Parse()

	if err := cli.Init(); err != nil {
		fail(err)
	}
	ctx, cancel := cli.Context(*timeout, 0)
	defer cancel()

	if *soakN > 0 {
		res, err := bench.Soak(ctx, *soakN, *soakDur)
		// The JSON artifact is written even on a failed run: the CI
		// soak-smoke job and any human debugging a failure both want the
		// counts behind the verdict.
		writeJSON(*jsonOut, *jsonDir, "soak", res)
		if err != nil {
			fail(err)
		}
		fmt.Printf("soak (%d clients, %v, capacity %d): %d ops (%d ok, %d injected, %d retries exhausted), %d attempts\n",
			res.Clients, time.Duration(res.DurationNS), res.TargetConcurrency,
			res.Ops, res.OpsOK, res.OpsInjected, res.OpsExhausted, res.Attempts)
		fmt.Printf("overload: %d shed 429, %d breaker 503, %d budget 429, %d injected 5xx; breaker cycles %d; faults injected %d\n",
			res.Shed429, res.Breaker503, res.Budget429, res.Injected5xx, res.BreakerCycles, res.FaultsInjected)
		fmt.Printf("admitted p50 %v (unloaded %v, bound %v); heap max %d MiB; goroutines %d -> %d; drained %v\n",
			time.Duration(res.LoadedP50NS), time.Duration(res.UnloadedP50NS), time.Duration(res.LatencyBoundNS),
			res.HeapMaxBytes>>20, res.GoroutinesBefore, res.GoroutinesAfter, res.Drained)
		if !res.Passed {
			for _, v := range res.Violations {
				fmt.Fprintf(os.Stderr, "soak violation: %s\n", v)
			}
			fail(fmt.Errorf("benchtable: soak failed %d invariant(s)", len(res.Violations)))
		}
		fmt.Println("soak: all invariants held")
		return
	}

	if *gameN > 0 {
		res, err := bench.GameCompare(ctx, *gameN)
		// Write the artifact even on a failed run: the CI smoke job and
		// any human debugging want the per-point receipts either way.
		writeJSON(*jsonOut, *jsonDir, "game", res)
		if err != nil {
			fail(err)
		}
		fmt.Printf("game head-to-head (n=%d): %d/%d points agreed\n", res.Elems, res.Agreements, res.Comparisons)
		for _, pt := range res.Points {
			fmt.Printf("  %-12s %-28q automaton %v, game %v\n",
				pt.Structure, pt.Formula, time.Duration(pt.AutomatonNS), time.Duration(pt.GameNS))
		}
		fmt.Printf("escape %q: automaton dies at MaxStates=%d (states budget), game completes in %v using %d positions, answer matches naive: %v\n",
			res.EscapeFormula, res.EscapeMaxStates, time.Duration(res.GameNS), res.GamePositions, res.GameCorrect)
		return
	}

	if *ra > 0 {
		res, err := bench.RACompare(ctx, *ra, *reps)
		if err != nil {
			fail(err)
		}
		fmt.Printf("ra(n=%d): ground program %d literals, fixpoint %d facts\n", res.N, res.GroundLits, res.Facts)
		fmt.Printf("direct streaming:    %v, %d B (%d join steps, peak buffered %d)\n",
			time.Duration(res.StreamNS), res.StreamBytes, res.TuplesStreamed, res.PeakBuffered)
		fmt.Printf("grounded (Thm 4.4):  %v, %d B  (alloc ratio grounded/streaming %.2fx)\n",
			time.Duration(res.GroundedNS), res.GroundedBy, res.GroundedAllocRatio)
		fmt.Printf("budget cap %d ground atoms: grounded dies (%s); direct completes %v (%d facts in %v)\n",
			res.BudgetCap, res.GroundedBudget, res.DirectUnderCap, res.DirectBudgetFact, time.Duration(res.DirectBudgetNS))
		writeJSON(*jsonOut, *jsonDir, "ra", res)
		return
	}

	opts := bench.Table1Opts{Seed: *seed, MonaBudget: *budget, SkipMona: *skipMona}
	if *fdsSpec != "" {
		for _, part := range strings.Split(*fdsSpec, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fail(fmt.Errorf("benchtable: bad -fds entry %q", part))
			}
			opts.FDs = append(opts.FDs, n)
		}
	} else {
		opts.FDs = workload.Table1FDs
	}

	// Median of repetitions for the MD column: rerun the whole table and
	// keep per-row medians (rows are deterministic given the seed).
	var runs [][]bench.Table1Row
	for r := 0; r < *reps; r++ {
		if err := ctx.Err(); err != nil {
			fail(fmt.Errorf("benchtable: %w", err))
		}
		rows, err := bench.Table1(opts)
		if err != nil {
			fail(err)
		}
		runs = append(runs, rows)
		opts.SkipMona = true // baseline measured once; it dominates runtime
	}
	final := runs[0]
	for i := range final {
		durs := make([]time.Duration, 0, len(runs))
		for _, rows := range runs {
			durs = append(durs, rows[i].MD)
		}
		sort.Slice(durs, func(a, b int) bool { return durs[a] < durs[b] })
		final[i].MD = durs[len(durs)/2]
	}
	fmt.Print(bench.FormatTable1(final))
	writeJSON(*jsonOut, *jsonDir, "table1", final)
}

func writeJSON(enabled bool, dir, mode string, payload any) {
	if !enabled {
		return
	}
	path, err := bench.WriteJSON(dir, mode, payload)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

func fail(err error) {
	cli.Fail("benchtable", err)
}
