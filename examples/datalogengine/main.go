// Datalog engine tour: semi-naive evaluation, stratified negation,
// builtins, and the quasi-guarded linear-time path of Theorem 4.4.
//
//	go run ./examples/datalogengine
package main

import (
	"fmt"
	"log"

	monadic "repro"
	"repro/internal/datalog"
)

func main() {
	// 1. Recursion: same-generation over a small parent relation.
	prog, err := monadic.ParseProgram(`
sg(X, X) :- person(X).
sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).
`)
	if err != nil {
		log.Fatal(err)
	}
	db := datalog.NewDB()
	for _, p := range [][2]string{{"bart", "homer"}, {"lisa", "homer"}, {"homer", "abe"}, {"herb", "abe"}} {
		db.AddFact("par", p[0], p[1])
	}
	for _, n := range []string{"abe", "homer", "herb", "bart", "lisa"} {
		db.AddFact("person", n)
	}
	out, err := monadic.EvalDatalog(prog, db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("same generation as bart:")
	for _, t := range out.Tuples("sg") {
		if t[0] == "bart" && t[1] != "bart" {
			fmt.Printf("  %s\n", t[1])
		}
	}

	// 2. Stratified negation: unreachable nodes.
	prog2, err := monadic.ParseProgram(`
reach(X) :- start(X).
reach(Y) :- reach(X), edge(X, Y).
unreach(X) :- node(X), not reach(X).
`)
	if err != nil {
		log.Fatal(err)
	}
	db2 := datalog.NewDB()
	db2.AddFact("start", "a")
	db2.AddFact("edge", "a", "b")
	db2.AddFact("edge", "c", "d")
	for _, n := range []string{"a", "b", "c", "d"} {
		db2.AddFact("node", n)
	}
	out2, err := monadic.EvalDatalog(prog2, db2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("unreachable:", out2.Tuples("unreach"))

	// 3. Quasi-guarded evaluation over a τ_td-style chain: types propagate
	// bottom-up in guaranteed linear time (Theorem 4.4).
	prog3, err := monadic.ParseProgram(`
theta(V) :- bag(V, X0, X1), leaf(V), e(X0, X1).
theta(V) :- bag(V, X0, X1), child1(V1, V), theta(V1), bag(V1, Y0, Y1), e(X0, X1).
accept :- root(V), theta(V).
`)
	if err != nil {
		log.Fatal(err)
	}
	guards, err := datalog.QuasiGuards(prog3, monadic.TDFuncDeps(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("quasi-guard body-atom index per rule:", guards)

	db3 := datalog.NewDB()
	n := 100
	for i := 0; i < n; i++ {
		s := fmt.Sprintf("s%d", i)
		db3.AddFact("bag", s, fmt.Sprintf("x%d", i), fmt.Sprintf("x%d", i+1))
		if i == 0 {
			db3.AddFact("leaf", s)
		} else {
			db3.AddFact("child1", fmt.Sprintf("s%d", i-1), s)
		}
		db3.AddFact("e", fmt.Sprintf("x%d", i), fmt.Sprintf("x%d", i+1))
	}
	db3.AddFact("root", fmt.Sprintf("s%d", n-1))

	g, err := datalog.Ground(prog3, db3, monadic.TDFuncDeps(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ground program: %d clauses over %d atoms (linear in the %d facts)\n",
		g.Horn.Len(), g.NumAtoms(), db3.NumFacts())
	out3, err := monadic.EvalQuasiGuarded(prog3, db3, monadic.TDFuncDeps(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("accept derived:", out3.Has("accept"))
}
