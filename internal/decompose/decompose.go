// Package decompose constructs tree decompositions of graphs and
// τ-structures. The paper relies on Bodlaender's linear-time algorithm [3]
// as a black box; as documented in DESIGN.md we substitute the standard
// practical toolkit — elimination-order heuristics (min-degree, min-fill)
// plus an exact branch-and-bound for small graphs — since any valid
// decomposition of the stated width preserves all downstream behaviour.
//
// The heuristics run on an incremental eliminator: live adjacency sets are
// maintained under elimination (so a vertex's current neighborhood is one
// lookup, never an Intersect with the alive set), degrees and fill-in
// scores are updated only for the vertices whose neighborhood actually
// changed, and the next vertex comes off a lazy min-heap. This turns the
// seed's O(n²·d²) min-fill loop into one whose per-round cost is bounded
// by the size of the eliminated vertex's second neighborhood.
package decompose

import (
	"container/heap"
	"context"
	"fmt"
	"math/rand"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/stage"
	"repro/internal/structure"
	"repro/internal/tree"
)

// ctxCheckRounds is how many elimination rounds pass between context
// polls: frequent enough that a deadline fires within microseconds of
// work, rare enough to be invisible in profiles.
const ctxCheckRounds = 64

// Heuristic selects an elimination-order heuristic.
type Heuristic int

const (
	// MinDegree eliminates a vertex of minimum current degree.
	MinDegree Heuristic = iota
	// MinFill eliminates a vertex whose elimination adds the fewest
	// fill-in edges; slower but usually yields smaller width.
	MinFill
)

// scoreEntry is a lazy heap entry: stale entries (score no longer
// current, or vertex already eliminated) are discarded on pop.
type scoreEntry struct {
	score, v int
}

type scoreHeap []scoreEntry

func (h scoreHeap) Len() int { return len(h) }
func (h scoreHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score < h[j].score
	}
	return h[i].v < h[j].v
}
func (h scoreHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *scoreHeap) Push(x any)        { *h = append(*h, x.(scoreEntry)) }
func (h *scoreHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h *scoreHeap) push(e scoreEntry) { heap.Push(h, e) }

// eliminator maintains the fill graph of an elimination process
// incrementally. adj[v] is always the *live* neighborhood of v (eliminated
// vertices removed, fill edges added), deg[v] its cardinality, and — when
// scores are tracked — fill[v] the number of fill edges eliminating v
// would create right now.
type eliminator struct {
	n     int
	adj   []*bitset.Set
	alive *bitset.Set
	deg   []int

	h        Heuristic
	scored   bool // maintain fill/deg scores and the heap
	fill     []int
	heap     scoreHeap
	scratch  *bitset.Set
	dirty    *bitset.Set
	newEdges [][2]int
}

func newEliminator(g *graph.Graph, h Heuristic, scored bool) *eliminator {
	n := g.N()
	e := &eliminator{
		n:      n,
		adj:    make([]*bitset.Set, n),
		alive:  bitset.New(n),
		deg:    make([]int, n),
		h:      h,
		scored: scored,
	}
	for v := 0; v < n; v++ {
		e.adj[v] = g.Neighbors(v).Clone()
		e.adj[v].Remove(v) // drop self-loops defensively
		e.deg[v] = e.adj[v].Len()
		e.alive.Add(v)
	}
	if scored {
		e.scratch = bitset.New(n)
		e.dirty = bitset.New(n)
		e.heap = make(scoreHeap, 0, 2*n)
		if h == MinFill {
			e.fill = make([]int, n)
			for v := 0; v < n; v++ {
				e.fill[v] = e.fillOf(v)
			}
		}
		for v := 0; v < n; v++ {
			e.heap = append(e.heap, scoreEntry{e.score(v), v})
		}
		heap.Init(&e.heap)
	}
	return e
}

func (e *eliminator) score(v int) int {
	if e.h == MinFill {
		return e.fill[v]
	}
	return e.deg[v]
}

// fillOf counts the non-adjacent pairs inside v's live neighborhood by
// word-parallel intersection counting: for each live neighbor u, the
// neighbors of v NOT adjacent to u number deg(v) - 1 - |N(v) ∩ N(u)|
// (u itself excluded); summing double-counts each missing pair.
func (e *eliminator) fillOf(v int) int {
	d := e.deg[v]
	if d < 2 {
		return 0
	}
	nb := e.adj[v]
	missing := 0
	nb.ForEach(func(u int) bool {
		missing += d - 1 - nb.IntersectLen(e.adj[u])
		return true
	})
	return missing / 2
}

// popBest returns the live vertex of minimal current score (ties to the
// smallest vertex ID), discarding stale heap entries.
func (e *eliminator) popBest() int {
	for e.heap.Len() > 0 {
		top := heap.Pop(&e.heap).(scoreEntry)
		if e.alive.Has(top.v) && e.score(top.v) == top.score {
			return top.v
		}
	}
	return -1
}

// popCandidates pops up to k distinct live minimal-score vertices (in
// (score, v) order). The caller must push back the ones it keeps alive.
func (e *eliminator) popCandidates(k int) []scoreEntry {
	var out []scoreEntry
	seen := map[int]bool{}
	for e.heap.Len() > 0 && len(out) < k {
		top := heap.Pop(&e.heap).(scoreEntry)
		if !e.alive.Has(top.v) || e.score(top.v) != top.score || seen[top.v] {
			continue
		}
		seen[top.v] = true
		out = append(out, top)
	}
	return out
}

// eliminate removes v: its live neighborhood becomes a clique, degrees
// are adjusted in place, and (when scores are tracked) the fill scores of
// exactly the vertices whose neighborhood changed — v's neighbors plus
// the common neighbors of each new edge — are recomputed and re-pushed.
// It returns v's live neighborhood at elimination time.
func (e *eliminator) eliminate(v int) []int {
	nbs := e.adj[v].Elems()
	for _, u := range nbs {
		e.adj[u].Remove(v)
		e.deg[u]--
	}
	e.alive.Remove(v)
	e.newEdges = e.newEdges[:0]
	for i, a := range nbs {
		for j := i + 1; j < len(nbs); j++ {
			b := nbs[j]
			if !e.adj[a].Has(b) {
				e.adj[a].Add(b)
				e.adj[b].Add(a)
				e.deg[a]++
				e.deg[b]++
				e.newEdges = append(e.newEdges, [2]int{a, b})
			}
		}
	}
	if !e.scored {
		return nbs
	}
	if e.h == MinFill {
		e.dirty.Clear()
		for _, u := range nbs {
			e.dirty.Add(u)
		}
		for _, ne := range e.newEdges {
			e.scratch.CopyFrom(e.adj[ne[0]])
			e.scratch.IntersectWith(e.adj[ne[1]])
			e.dirty.UnionWith(e.scratch)
		}
		e.dirty.ForEach(func(u int) bool {
			e.fill[u] = e.fillOf(u)
			e.heap.push(scoreEntry{e.fill[u], u})
			return true
		})
	} else {
		// Degrees changed only inside N(v) (new edges join neighbors).
		for _, u := range nbs {
			e.heap.push(scoreEntry{e.deg[u], u})
		}
	}
	return nbs
}

// Order computes an elimination order of g using the given heuristic.
func Order(g *graph.Graph, h Heuristic) []int {
	order, _ := OrderCtx(context.Background(), g, h)
	return order
}

// OrderCtx is Order with cancellation support: the elimination loop
// polls ctx every ctxCheckRounds rounds and returns the context error
// wrapped in a *stage.Error tagged stage.Decompose.
func OrderCtx(ctx context.Context, g *graph.Graph, h Heuristic) ([]int, error) {
	n := g.N()
	e := newEliminator(g, h, true)
	order := make([]int, 0, n)
	for k := 0; k < n; k++ {
		if k%ctxCheckRounds == 0 {
			if err := ctx.Err(); err != nil {
				return nil, stage.Wrap(stage.Decompose, err)
			}
		}
		best := e.popBest()
		order = append(order, best)
		e.eliminate(best)
	}
	return order, nil
}

// FromOrder builds a tree decomposition of g from an elimination order
// using the standard fill-in construction. The returned decomposition is
// raw (no normal form) and valid for g.
func FromOrder(g *graph.Graph, order []int) (*tree.Decomposition, error) {
	return FromOrderCtx(context.Background(), g, order)
}

// FromOrderCtx is FromOrder with cancellation support: the elimination
// simulation polls ctx every ctxCheckRounds rounds (see OrderCtx).
func FromOrderCtx(ctx context.Context, g *graph.Graph, order []int) (*tree.Decomposition, error) {
	n := g.N()
	if n == 0 {
		d := tree.New()
		d.SetRoot(d.AddNode(nil))
		return d, nil
	}
	if len(order) != n {
		return nil, fmt.Errorf("decompose: order has %d entries for %d vertices", len(order), n)
	}
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	for i, v := range order {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("decompose: vertex %d out of range in order", v)
		}
		if pos[v] >= 0 {
			return nil, fmt.Errorf("decompose: vertex %d appears twice in order", v)
		}
		pos[v] = i
	}
	for v, p := range pos {
		if p < 0 {
			return nil, fmt.Errorf("decompose: vertex %d missing from order", v)
		}
	}

	// Simulate elimination to obtain, for each vertex, its set of later
	// neighbors in the fill graph.
	e := newEliminator(g, MinDegree, false)
	later := make([][]int, n) // later[v] = live neighbors at elimination time
	for k, v := range order {
		if k%ctxCheckRounds == 0 {
			if err := ctx.Err(); err != nil {
				return nil, stage.Wrap(stage.Decompose, err)
			}
		}
		later[v] = e.eliminate(v)
	}

	// Bag of v = {v} ∪ later(v). Parent bag: the bag of the earliest
	// eliminated vertex among later(v); vertices with no later neighbors
	// become component roots, chained under the last vertex's bag.
	parent := make([]int, n)
	for v := 0; v < n; v++ {
		parent[v] = -1
	}
	for _, v := range order {
		first := -1
		for _, u := range later[v] {
			if first < 0 || pos[u] < pos[first] {
				first = u
			}
		}
		parent[v] = first
	}
	rootVertex := order[n-1]
	for v := 0; v < n; v++ {
		if parent[v] < 0 && v != rootVertex {
			parent[v] = rootVertex // join forest components under one root
		}
	}

	children := make([][]int, n)
	ints := n - 1 // every vertex but the root is one child-list entry
	for v := 0; v < n; v++ {
		if parent[v] >= 0 {
			children[parent[v]] = append(children[parent[v]], v)
		}
		ints += 1 + len(later[v])
	}
	d := tree.NewSized(n, ints)
	ids := make([]int, n)
	var build func(v int) int
	build = func(v int) int {
		kids := make([]int, 0, len(children[v]))
		for _, c := range children[v] {
			kids = append(kids, build(c))
		}
		bag := append([]int{v}, later[v]...)
		ids[v] = d.AddNode(bag, kids...)
		return ids[v]
	}
	d.SetRoot(build(rootVertex))
	return d, nil
}

// Graph decomposes g with the given heuristic and returns a valid raw
// tree decomposition.
func Graph(g *graph.Graph, h Heuristic) (*tree.Decomposition, error) {
	return GraphCtx(context.Background(), g, h)
}

// GraphCtx is Graph with cancellation support (see OrderCtx).
func GraphCtx(ctx context.Context, g *graph.Graph, h Heuristic) (*tree.Decomposition, error) {
	order, err := OrderCtx(ctx, g, h)
	if err != nil {
		return nil, err
	}
	return FromOrderCtx(ctx, g, order)
}

// NiceGraph decomposes g with the min-fill heuristic and normalizes the
// result to the nice form of Section 5, the input of the semiring
// solver's graph problems.
func NiceGraph(g *graph.Graph) (*tree.Decomposition, error) {
	d, err := Graph(g, MinFill)
	if err != nil {
		return nil, err
	}
	return tree.NormalizeNice(d, tree.NiceOptions{})
}

// Structure decomposes a τ-structure via its primal graph; the result is
// a valid tree decomposition of the structure (same bags cover all
// tuples, since every tuple induces a clique in the primal graph).
func Structure(st *structure.Structure, h Heuristic) (*tree.Decomposition, error) {
	return StructureCtx(context.Background(), st, h)
}

// StructureCtx is Structure with cancellation support (see OrderCtx).
func StructureCtx(ctx context.Context, st *structure.Structure, h Heuristic) (*tree.Decomposition, error) {
	return GraphCtx(ctx, graph.Primal(st), h)
}

// BestOrder tries min-degree, min-fill and a few randomized restarts and
// returns the order achieving the smallest width.
func BestOrder(g *graph.Graph, restarts int, rng *rand.Rand) []int {
	best := Order(g, MinDegree)
	bestW := orderWidth(g, best)
	if o := Order(g, MinFill); orderWidth(g, o) < bestW {
		best, bestW = o, orderWidth(g, o)
	}
	for r := 0; r < restarts; r++ {
		o := randomizedMinFill(g, rng)
		if w := orderWidth(g, o); w < bestW {
			best, bestW = o, w
		}
	}
	return best
}

// randomizedMinFill eliminates a uniformly random vertex among the (up
// to) 3 best fill-in scores each round.
func randomizedMinFill(g *graph.Graph, rng *rand.Rand) []int {
	n := g.N()
	e := newEliminator(g, MinFill, true)
	order := make([]int, 0, n)
	for k := 0; k < n; k++ {
		cands := e.popCandidates(3)
		pick := rng.Intn(len(cands))
		for i, c := range cands {
			if i != pick {
				e.heap.push(c)
			}
		}
		best := cands[pick].v
		order = append(order, best)
		e.eliminate(best)
	}
	return order
}

func orderWidth(g *graph.Graph, order []int) int {
	d, err := FromOrder(g, order)
	if err != nil {
		return int(^uint(0) >> 1)
	}
	return d.Width()
}
