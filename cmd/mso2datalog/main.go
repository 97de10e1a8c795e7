// Command mso2datalog runs the generic Theorem 4.5 compiler: it turns an
// MSO formula over a relational signature into an equivalent
// quasi-guarded monadic datalog program over τ_td and prints it.
//
//	mso2datalog -sig 'c/1' -formula 'c(x) & exists y ~c(y)' -var x -width 1
//	mso2datalog -sig 'c/1' -formula 'forall x c(x)' -decision -width 1
//
// As the paper stresses, the generic program is exponential in the
// formula and the width; expect this to be feasible only for small
// signatures, quantifier depths, and widths (see the -max* limits).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/mso"
	"repro/internal/structure"
)

func main() {
	sigSpec := flag.String("sig", "", "signature, e.g. 'e/2,c/1'")
	formulaSrc := flag.String("formula", "", "MSO formula text")
	freeVar := flag.String("var", "x", "free element variable of the unary query")
	width := flag.Int("width", 1, "treewidth the program is compiled for")
	decision := flag.Bool("decision", false, "compile the 0-ary decision variant (formula must be a sentence)")
	maxTypes := flag.Int("maxtypes", 2000, "abort after this many types")
	maxWitness := flag.Int("maxwitness", 12, "witness-domain size limit")
	timeout := flag.Duration("timeout", 0, "abort the compilation after this duration (0 = none)")
	budget := flag.Int64("budget", 0, "per-dimension resource budget, e.g. automaton states (0 = unlimited)")
	flag.Parse()

	if err := cli.Init(); err != nil {
		fail(err)
	}
	ctx, cancel := cli.Context(*timeout, *budget)
	defer cancel()

	if *sigSpec == "" || *formulaSrc == "" {
		fmt.Fprintln(os.Stderr, "mso2datalog: -sig and -formula are required")
		flag.Usage()
		os.Exit(2)
	}
	sig, err := parseSig(*sigSpec)
	if err != nil {
		fail(err)
	}
	f, err := mso.Parse(*formulaSrc)
	if err != nil {
		fail(err)
	}
	compiled, err := core.CompileCtx(ctx, sig, f, *freeVar, core.Options{
		Width:            *width,
		Decision:         *decision,
		MaxTypes:         *maxTypes,
		MaxWitnessDomain: *maxWitness,
	})
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "width %d, quantifier depth %d: %d bottom-up types, %d top-down types, %d rules\n",
		compiled.Width, compiled.QuantifierDepth, compiled.UpTypes, compiled.DownTypes, len(compiled.Program.Rules))
	fmt.Print(compiled.Program)
}

func parseSig(spec string) (*structure.Signature, error) {
	var preds []structure.Predicate
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		name, arityStr, ok := strings.Cut(part, "/")
		if !ok {
			return nil, fmt.Errorf("mso2datalog: bad predicate spec %q (want name/arity)", part)
		}
		arity, err := strconv.Atoi(arityStr)
		if err != nil {
			return nil, fmt.Errorf("mso2datalog: bad arity in %q", part)
		}
		preds = append(preds, structure.Predicate{Name: name, Arity: arity})
	}
	return structure.NewSignature(preds...)
}

func fail(err error) {
	cli.Fail("mso2datalog", err)
}
