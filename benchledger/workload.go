package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/structure"
)

// workloadNames lists the workloads in the order a run of all of them
// takes. Why each exists is in README.md.
var workloadNames = []string{"hot-read", "cold-read", "edit-requery", "cold-dp"}

// clients is the closed loop's client count: one per core of the
// reference machine, so the load generator never queues on itself.
const clients = 2

type opKind int

const (
	opEval opKind = iota
	opBatch
	opSolve
	// opEdit is a /mutate of the client's current structure text
	// followed by an /eval of the post-edit text.
	opEdit
)

// op is one request of a workload, with the ground truth the oracle
// checks its answer against. The truth is built directly through the
// structure and graph APIs, never parsed from the request text.
type op struct {
	kind    opKind
	backend string // X-Backend header; "" is the server default
	eval    server.EvalRequest
	batch   server.BatchRequest
	solve   server.SolveRequest
	edit    server.MutateRequest // Structure is filled in from the client's current text
	requery string               // formula evaluated after an edit

	truth []*structure.Structure // eval: one structure; batch: one per request structure
	graph *graph.Graph           // solve
}

// workload is one traffic mix. prime holds the set-up requests that
// warm the server before measuring. ops(c) builds client c's op list,
// which the client runs in order, starting over at its end; the same
// seed always builds the same list, so the oracle can rebuild it after
// the measured phase. resident(c), when set, is the structure client c
// edits: a fresh copy serves as its starting text and as the oracle's
// mirror.
type workload struct {
	prime    []op
	ops      func(client int) []op
	resident func(client int) *structure.Structure
	// segment, when set, splits the measured phase into segments of
	// segment ops per client, each on a freshly set-up server, for a
	// workload whose server state grows all run long: every segment then
	// measures the same states, however fast the run is.
	segment int
}

// initial is client c's starting structure text ("" without one).
func (w *workload) initial(c int) string {
	if w.resident == nil {
		return ""
	}
	return text(w.resident(c))
}

func newWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "hot-read":
		return hotRead(seed), nil
	case "cold-read":
		return coldRead(seed), nil
	case "edit-requery":
		return editRequery(seed), nil
	case "cold-dp":
		return coldDP(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// rngFor derives an independent generator per (seed, stream).
func rngFor(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
}

var (
	sigColored = structure.MustSignature(
		structure.Predicate{Name: "edge", Arity: 2},
		structure.Predicate{Name: "c", Arity: 1},
	)
	sigGraph = structure.MustSignature(structure.Predicate{Name: "edge", Arity: 2})
)

// coloredTree is a random tree on n elements named prefix0…, half of
// them colored; element 0 is always colored, so the signature inferred
// from the text always has c. The color count is fixed so that request
// and answer sizes do not depend on the seed.
func coloredTree(prefix string, n int, rng *rand.Rand) *structure.Structure {
	st := newElems(sigColored, prefix, n)
	for v := 1; v < n; v++ {
		st.MustAddTuple("edge", rng.Intn(v), v)
	}
	colorHalf(st, rng)
	return st
}

// coloredPath is the path prefix0 – prefix1 – … colored like coloredTree.
func coloredPath(prefix string, n int, rng *rand.Rand) *structure.Structure {
	st := newElems(sigColored, prefix, n)
	for v := 0; v+1 < n; v++ {
		st.MustAddTuple("edge", v, v+1)
	}
	colorHalf(st, rng)
	return st
}

// graphStructure encodes g over {edge/2}, element i being vertex i, so
// the server's primal graph of the text is g itself.
func graphStructure(g *graph.Graph, colored bool, rng *rand.Rand) *structure.Structure {
	sig := sigGraph
	if colored {
		sig = sigColored
	}
	st := newElems(sig, "v", g.N())
	for _, e := range g.Edges() {
		st.MustAddTuple("edge", e[0], e[1])
	}
	if colored {
		colorHalf(st, rng)
	}
	return st
}

func newElems(sig *structure.Signature, prefix string, n int) *structure.Structure {
	st := structure.New(sig)
	for i := 0; i < n; i++ {
		st.AddElem(prefix + strconv.Itoa(i))
	}
	return st
}

// colorHalf colors element 0 and a random half of the others.
func colorHalf(st *structure.Structure, rng *rand.Rand) {
	st.MustAddTuple("c", 0)
	for _, v := range rng.Perm(st.Size() - 1)[:(st.Size()-1)/2] {
		st.MustAddTuple("c", v+1)
	}
}

// text renders st in the fact-list format with elements declared first,
// so the server's element IDs equal the generator's.
func text(st *structure.Structure) string {
	var b strings.Builder
	b.WriteString("dom")
	for i := 0; i < st.Size(); i++ {
		b.WriteByte(' ')
		b.WriteString(st.Name(i))
	}
	b.WriteString(".\n")
	for _, p := range st.Sig().Predicates() {
		for _, t := range st.Tuples(p.Name) {
			b.WriteString(p.Name)
			b.WriteByte('(')
			for k, e := range t {
				if k > 0 {
					b.WriteByte(',')
				}
				b.WriteString(st.Name(e))
			}
			b.WriteString(").\n")
		}
	}
	return b.String()
}

func evalOp(st *structure.Structure, formula, backend string) op {
	return op{
		kind:    opEval,
		backend: backend,
		eval:    server.EvalRequest{Structure: text(st), Formula: formula, Var: "x"},
		truth:   []*structure.Structure{st},
	}
}

// split hands client c the ops c, c+clients, c+2·clients, … of one op
// list: its round-robin share.
func split(ops []op, c int) []op {
	var out []op
	for j := c; j < len(ops); j += clients {
		out = append(out, ops[j])
	}
	return out
}

// Hot-read: resident colored trees, every op a result-cache hit. The op
// list follows the index: four evals cycling through every (tree,
// formula) pair, then a batch over two trees.
const hotTrees = 8

var hotFormulas = []string{"c(x)", "~c(x)"}

func hotRead(seed int64) *workload {
	rng := rngFor(seed, -1)
	trees := make([]*structure.Structure, hotTrees)
	texts := make([]string, hotTrees)
	var prime []op
	for i := range trees {
		trees[i] = coloredTree("v", 16+8*i, rng)
		texts[i] = text(trees[i])
		for _, f := range hotFormulas {
			prime = append(prime, evalOp(trees[i], f, ""))
		}
	}
	ops := make([]op, 5*hotTrees) // 8 rounds: every pair twice, every tree in 2 batches
	for j := range ops {
		r := j / 5
		if j%5 == 4 {
			a, b := r%hotTrees, (r+3)%hotTrees
			var qs []server.BatchQuery
			for s := 0; s < 2; s++ {
				for _, f := range hotFormulas {
					qs = append(qs, server.BatchQuery{Structure: s, Formula: f, Var: "x"})
				}
			}
			ops[j] = op{
				kind:  opBatch,
				batch: server.BatchRequest{Structures: []string{texts[a], texts[b]}, Queries: qs},
				truth: []*structure.Structure{trees[a], trees[b]},
			}
		} else {
			e := 4*r + j%5
			t := e % hotTrees
			ops[j] = op{
				kind:  opEval,
				eval:  server.EvalRequest{Structure: texts[t], Formula: hotFormulas[(e/hotTrees)%len(hotFormulas)], Var: "x"},
				truth: []*structure.Structure{trees[t]},
			}
		}
	}
	return &workload{
		prime: prime,
		ops:   func(c int) []op { return split(ops, c) },
	}
}

// Cold-read: a fresh tree per op, so every op runs the whole pipeline.
var coldFormulas = []string{"c(x)", "~c(x)", "c(x) | ~c(x)"}

// coldOps is the length of the cold-read op list: more trees than a run
// at seed speed reaches, and more than the server's 256-session
// registry holds, so that a tree that comes round again is cold even on
// a server that has run the whole list.
const coldOps = 1024

func coldRead(seed int64) *workload {
	rng := rngFor(seed, -1)
	var prime []op
	for _, f := range coldFormulas {
		prime = append(prime, evalOp(coloredTree("p", 8, rng), f, ""))
	}
	return &workload{
		prime: prime,
		ops: func(c int) []op {
			// Sizes and formulas follow the op index, not the seed, so every
			// seed runs the same size mix.
			rng := rngFor(seed, c)
			var ops []op
			for j := c; j < coldOps; j += clients {
				ops = append(ops, evalOp(coloredTree("v", 12+(j*7)%17, rng), coldFormulas[j%len(coldFormulas)], ""))
			}
			return ops
		},
		// Every op adds a session to the registry, and on one server the
		// time per element grows by half over the first 70 s. A segment
		// of 16 ops per client takes about 5 s at seed speed.
		segment: 16,
	}
}

// Edit-requery: each client edits its own resident path.
const editPathLen = 60

var editFormulas = []string{"c(x)", "~c(x)"}

// editPath is client c's resident path; the clients' element names
// differ, so the two paths never share a session.
func editPath(seed int64, c int) *structure.Structure {
	return coloredPath(string(rune('a'+c)), editPathLen, rngFor(seed, 100+c))
}

// editOps is the length of a client's edit-requery op list: random
// edits, then the same edits undone in reverse order, so that the path
// is back in its initial state whenever the list starts over.
const editOps = 512

// edits makes n edits of the path st. Three in every ten retract an
// edge or restore the one retracted; the others toggle an element's
// colour. The kinds follow the edit's index, and the elements and edges
// are taken in turn from seeded shuffles of all of them, so that every
// seed runs the same mix of edits spread evenly along the path.
func edits(st *structure.Structure, n int, rng *rand.Rand) []server.MutateRequest {
	colored := make([]bool, st.Size())
	for _, t := range st.Tuples("c") {
		colored[t[0]] = true
	}
	// Element 0 stays colored, keeping c in the signature.
	toggle, cut := rng.Perm(st.Size()-1), rng.Perm(st.Size()-1)
	toggles, cuts := 0, 0
	retracted := -1 // edge (v, v+1) currently retracted
	out := make([]server.MutateRequest, n)
	for i := range out {
		m := &out[i]
		switch {
		case i%10 != 2 && i%10 != 5 && i%10 != 8:
			v := 1 + toggle[toggles%len(toggle)]
			toggles++
			f := server.MutateFact{Pred: "c", Args: []string{st.Name(v)}}
			if colored[v] {
				m.Remove = []server.MutateFact{f}
			} else {
				m.Insert = []server.MutateFact{f}
			}
			colored[v] = !colored[v]
		case retracted >= 0:
			m.Insert = []server.MutateFact{{Pred: "edge", Args: []string{st.Name(retracted), st.Name(retracted + 1)}}}
			retracted = -1
		default:
			retracted = cut[cuts%len(cut)]
			cuts++
			m.Remove = []server.MutateFact{{Pred: "edge", Args: []string{st.Name(retracted), st.Name(retracted + 1)}}}
		}
	}
	return out
}

func editRequery(seed int64) *workload {
	var prime []op
	for c := 0; c < clients; c++ {
		st := editPath(seed, c)
		for _, f := range editFormulas {
			prime = append(prime, evalOp(st, f, ""))
		}
	}
	return &workload{
		prime: prime,
		ops: func(c int) []op {
			do := edits(editPath(seed, c), editOps/2, rngFor(seed, c))
			for i := len(do) - 1; i >= 0; i-- {
				do = append(do, server.MutateRequest{Insert: do[i].Remove, Remove: do[i].Insert})
			}
			ops := make([]op, len(do))
			for i, m := range do {
				ops[i] = op{kind: opEdit, edit: m, requery: editFormulas[i%len(editFormulas)]}
			}
			return ops
		},
		resident: func(c int) *structure.Structure { return editPath(seed, c) },
	}
}

// Cold-dp: fresh partial k-trees through /solve and the game backend.
var dpProblems = []struct{ problem, mode string }{
	{"threecol", "decide"},
	{"vcover", "optimize"},
	{"domset", "count"},
	{"wis", "optimize"},
}

const gameFormula = "c(x) & exists y (edge(x,y) & ~c(y))"

// dpRounds is the length of one cold-dp cycle, in rounds of three
// solves and one game eval. Each cycle holds every solve size with every
// problem at k = 2 and 3, and every game size, so runs of any length see
// the same balance.
const dpRounds = 32

// dpCycles is the number of cycles, each on fresh graphs, in a client's
// op list. The two clients' lists then hold 512 distinct structures,
// twice the server's 256-session registry, so that FIFO eviction has
// dropped each one before it comes round again.
const dpCycles = 2

// dpOps gives every client the same mix. Sizes, k and problems follow
// the position in the cycle, not the seed; the two clients run half a
// cycle apart.
func dpOps(seed int64, c int) []op {
	rng := rngFor(seed, c)
	ops := make([]op, 4*dpRounds*dpCycles)
	for i := range ops {
		r := (i/4 + c*dpRounds/clients) % dpRounds
		if i%4 == 3 {
			n := 40 + 80*r/(dpRounds-1)
			ops[i] = evalOp(graphStructure(graph.PartialKTree(n, 2, 0.3, rng), true, rng), gameFormula, "game")
			continue
		}
		// Solve k of the cycle: 12 sizes, each with every problem at k = 2, 3.
		k := 3*r + i%4
		n := 100 + 300*(k/8)/(3*dpRounds/8-1)
		g := graph.PartialKTree(n, 2+(k/4)%2, 0.3, rng)
		p := dpProblems[k%len(dpProblems)]
		ops[i] = solveOp(g, p.problem, p.mode, rng)
	}
	return ops
}

func solveOp(g *graph.Graph, problem, mode string, rng *rand.Rand) op {
	req := server.SolveRequest{Structure: text(graphStructure(g, false, nil)), Problem: problem, Mode: mode}
	if problem == "wis" {
		req.Weights = make([]int, g.N())
		for v := range req.Weights {
			req.Weights[v] = 1 + rng.Intn(9)
		}
	}
	return op{kind: opSolve, solve: req, graph: g}
}

// coldDP primes the server with every op class at its largest size.
// The priming inputs are the same for every seed: the cost of one
// 400-vertex 3-tree varies by tens of percent with its shape, which
// would make setup_s depend on the seed.
func coldDP(seed int64) *workload {
	rng := rngFor(0, -1)
	g := graph.PartialKTree(400, 3, 0.3, rng)
	var prime []op
	for _, p := range dpProblems {
		prime = append(prime, solveOp(g, p.problem, p.mode, rng))
	}
	prime = append(prime, evalOp(graphStructure(graph.PartialKTree(120, 2, 0.3, rng), true, rng), gameFormula, "game"))
	return &workload{
		prime: prime,
		ops:   func(c int) []op { return dpOps(seed, c) },
	}
}
