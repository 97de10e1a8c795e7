package threecol

// k-colorability and coloring counting: the paper highlights datalog's
// flexibility ("many relevant properties can be expressed by really short
// programs"); the Figure 5 program generalizes to any fixed number of
// color classes by widening the solve predicate, and to counting by
// evaluating the same transitions in the counting semiring. Both run the
// one colorProblem of problem.go — the seed's separate kHandlers copy
// (which had drifted from the Figure 5 handlers in leaf enumeration
// order and bit packing) is gone.

import (
	"context"
	"fmt"
	"math/big"

	"repro/internal/graph"
	"repro/internal/solver"
	"repro/internal/tree"
)

// KColorable decides whether g has a proper coloring with k colors.
func KColorable(g *graph.Graph, k int) (bool, error) {
	if k < 1 || k > MaxColors {
		return false, fmt.Errorf("threecol: k must be in 1..%d, got %d", MaxColors, k)
	}
	nice, err := niceFor(g)
	if err != nil {
		return false, err
	}
	return solver.Decide(context.Background(), nice, newColorProblem(g, k))
}

// KColoring returns a proper k-coloring (vertex → 0..k-1) if one
// exists, from the same witness walk that backs Coloring.
func KColoring(g *graph.Graph, k int) ([]int, bool, error) {
	if k < 1 || k > MaxColors {
		return nil, false, fmt.Errorf("threecol: k must be in 1..%d, got %d", MaxColors, k)
	}
	in, err := NewInstance(g)
	if err != nil {
		return nil, false, err
	}
	return in.kColoring(context.Background(), k)
}

func (in *Instance) kColoring(ctx context.Context, k int) ([]int, bool, error) {
	cp := newColorProblem(in.g, k)
	der, err := solver.Witness(ctx, in.nice, cp)
	if err != nil || der == nil {
		return nil, false, err
	}
	bags, err := in.nice.SortedBags()
	if err != nil {
		return nil, false, fmt.Errorf("threecol: %w", err)
	}
	colors := make([]int, in.g.N())
	err = der.Walk(func(v int, s uint64) error {
		for p, e := range bags[v] {
			colors[e] = int(cp.w.At(s, p))
		}
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	return colors, true, nil
}

// CountColoringsBig returns the exact number of proper k-colorings of
// g, by the counting-semiring pass over the same Figure 5 transitions.
func CountColoringsBig(g *graph.Graph, k int) (*big.Int, error) {
	if k < 1 || k > MaxColors {
		return nil, fmt.Errorf("threecol: k must be in 1..%d, got %d", MaxColors, k)
	}
	nice, err := niceFor(g)
	if err != nil {
		return nil, err
	}
	return solver.Count(context.Background(), nice, newColorProblem(g, k))
}

// CountColorings returns the number of proper k-colorings of g,
// truncated to uint64 (counts beyond 2^64 wrap, as with the seed's
// uint64 accumulation; use CountColoringsBig for exact large counts).
func CountColorings(g *graph.Graph, k int) (uint64, error) {
	n, err := CountColoringsBig(g, k)
	if err != nil {
		return 0, err
	}
	var mask big.Int
	mask.SetUint64(^uint64(0))
	return new(big.Int).And(n, &mask).Uint64(), nil
}

// ChromaticNumber returns the least k with a proper k-coloring (≤
// MaxColors; errors beyond — bounded-treewidth graphs satisfy
// χ ≤ tw+1, so this only fails for very dense inputs). The graph is
// decomposed once and the nice form reused for every k probe.
func ChromaticNumber(g *graph.Graph) (int, error) {
	if g.N() == 0 {
		return 0, nil
	}
	nice, err := niceFor(g)
	if err != nil {
		return 0, err
	}
	for k := 1; k <= MaxColors; k++ {
		ok, err := solver.Decide(context.Background(), nice, newColorProblem(g, k))
		if err != nil {
			return 0, err
		}
		if ok {
			return k, nil
		}
	}
	return 0, fmt.Errorf("threecol: chromatic number exceeds %d", MaxColors)
}

func niceFor(g *graph.Graph) (*tree.Decomposition, error) {
	in, err := NewInstance(g)
	if err != nil {
		return nil, err
	}
	return in.nice, nil
}

// CountBruteForce counts proper k-colorings by exhaustive enumeration
// (test oracle; exponential).
func CountBruteForce(g *graph.Graph, k int) uint64 {
	n := g.N()
	colors := make([]int, n)
	var count uint64
	var rec func(v int)
	rec = func(v int) {
		if v == n {
			count++
			return
		}
		for c := 0; c < k; c++ {
			ok := true
			g.Neighbors(v).ForEach(func(u int) bool {
				if u < v && colors[u] == c {
					ok = false
					return false
				}
				return true
			})
			if ok {
				colors[v] = c
				rec(v + 1)
			}
		}
	}
	rec(0)
	return count
}
