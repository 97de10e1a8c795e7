// Command msoeval evaluates an MSO formula over a finite structure.
// The default backend is the naive (exponential) model checker — the
// baseline of Section 6; -backend selects a treewidth-based backend
// instead ("automaton" for the Theorem 4.4/4.5 compile-and-evaluate
// pipeline, "game" for the lazy game-theoretic evaluator).
//
//	msoeval -structure st.txt -formula 'exists x e(x,x)' [-query x] [-backend naive|automaton|game] [-budget n] [-timeout d]
//
// With -query, the formula is treated as a unary query over the named
// free variable and the satisfying elements are printed; otherwise it
// must be a sentence. -timeout aborts the evaluation after the given
// duration with a stage-tagged deadline error. For the naive backend,
// -budget caps model-checker steps; for the others it is the uniform
// per-dimension stage budget (states, ground atoms, game positions).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/mso"
	"repro/internal/structure"
)

func main() {
	stPath := flag.String("structure", "", "path to the structure fact file")
	formulaSrc := flag.String("formula", "", "MSO formula text (or @file)")
	query := flag.String("query", "", "treat as unary query over this free variable")
	backendName := flag.String("backend", "naive", "evaluation backend: naive, automaton or game")
	budget := flag.Int64("budget", 0, "step budget for naive, uniform stage budget otherwise (0 = unlimited)")
	timeout := flag.Duration("timeout", 0, "abort after this duration (0 = none)")
	flag.Parse()

	if err := cli.Init(); err != nil {
		fail(err)
	}

	if *stPath == "" || *formulaSrc == "" {
		fmt.Fprintln(os.Stderr, "msoeval: -structure and -formula are required")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(*stPath)
	if err != nil {
		fail(err)
	}
	st, err := structure.Parse(string(src), nil)
	if err != nil {
		fail(err)
	}
	text := *formulaSrc
	if rest, ok := strings.CutPrefix(text, "@"); ok {
		raw, err := os.ReadFile(rest)
		if err != nil {
			fail(err)
		}
		text = string(raw)
	}
	f, err := mso.Parse(text)
	if err != nil {
		fail(err)
	}

	if *backendName != "naive" {
		if _, err := cli.Backend(*backendName); err != nil {
			fail(err)
		}
		ctx, cancel := cli.Context(*timeout, *budget)
		defer cancel()
		opts := core.Options{Backend: *backendName, Decision: *query == ""}
		start := time.Now()
		res, err := core.RunCtx(ctx, st, f, *query, opts)
		if err != nil {
			fail(err)
		}
		if *query == "" {
			fmt.Printf("holds: %v\n", res.Holds)
		} else {
			fmt.Print("selected:")
			res.Selected.ForEach(func(e int) bool {
				fmt.Printf(" %s", st.Name(e))
				return true
			})
			fmt.Println()
		}
		fmt.Fprintf(os.Stderr, "backend: %s, width %d, %d decomposition nodes\n", *backendName, res.Width, res.TDNodes)
		fmt.Fprintf(os.Stderr, "elapsed: %v\n", time.Since(start))
		return
	}

	ctx, cancel := cli.Context(*timeout, 0)
	defer cancel()
	var b *mso.Budget
	if *budget > 0 {
		b = &mso.Budget{MaxSteps: *budget}
	}
	start := time.Now()
	if *query == "" {
		ok, err := mso.SentenceCtx(ctx, st, f, b)
		reportBudget(err)
		fmt.Printf("holds: %v\n", ok)
	} else {
		sel, err := mso.QueryCtx(ctx, st, f, *query, b)
		reportBudget(err)
		fmt.Print("selected:")
		sel.ForEach(func(e int) bool {
			fmt.Printf(" %s", st.Name(e))
			return true
		})
		fmt.Println()
	}
	fmt.Fprintf(os.Stderr, "elapsed: %v\n", time.Since(start))
}

func reportBudget(err error) {
	if errors.Is(err, mso.ErrBudget) {
		fmt.Fprintln(os.Stderr, "msoeval: budget exhausted (the MONA-style out-of-memory outcome)")
		os.Exit(cli.ExitBudget)
	}
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	cli.Fail("msoeval", err)
}
