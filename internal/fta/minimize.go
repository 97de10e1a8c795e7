package fta

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/mso"
)

// Minimize returns the minimal deterministic automaton equivalent to a —
// Moore-style partition refinement lifted to trees: states are merged
// unless they are distinguished by acceptance or, recursively, by some
// transition in either child position against any co-state. The input
// must be deterministic and complete (as produced by Determinize or
// Complement); nondeterministic inputs are determinized first.
//
// MONA's implementation keeps automata minimal at every step and still
// hits the state explosion; CompileWith with Minimize reproduces that
// regime.
func Minimize(a *Automaton) *Automaton {
	d := a
	if !isDeterministic(a) {
		d = Determinize(a)
	}
	n := d.NumStates
	if n == 0 {
		return d
	}
	// block[s] = index of s's current block.
	block := make([]int, n)
	for s := 0; s < n; s++ {
		if d.Final[s] {
			block[s] = 1
		}
	}
	numBlocks := 2

	// step looks up the deterministic successor (complete ⇒ exists).
	step := func(label, s1, s2 int) int {
		ss := d.BinTrans[[3]int{label, s1, s2}]
		if len(ss) == 0 {
			return -1
		}
		return ss[0]
	}

	for {
		// Signature of a state: its block plus the blocks reached in
		// every (label, co-state, position) context. The co-state ranges
		// over every state, not one representative per block: while
		// blocks still split, two states of one block may lead to
		// different blocks, and comparing against one of them only would
		// merge states that some context distinguishes.
		sigOf := func(s int) string {
			var b strings.Builder
			fmt.Fprintf(&b, "%d", block[s])
			for label := 0; label < d.NumLabels; label++ {
				for r := 0; r < n; r++ {
					left := step(label, s, r)
					right := step(label, r, s)
					lb, rb := -1, -1
					if left >= 0 {
						lb = block[left]
					}
					if right >= 0 {
						rb = block[right]
					}
					fmt.Fprintf(&b, ",%d,%d", lb, rb)
				}
			}
			return b.String()
		}
		sigIndex := map[string]int{}
		newBlock := make([]int, n)
		var order []string
		for s := 0; s < n; s++ {
			sig := sigOf(s)
			if _, ok := sigIndex[sig]; !ok {
				sigIndex[sig] = len(order)
				order = append(order, sig)
			}
			newBlock[s] = sigIndex[sig]
		}
		if len(order) == numBlocks {
			break
		}
		block = newBlock
		numBlocks = len(order)
	}

	// Quotient automaton.
	out := NewAutomaton(d.NumLabels, numBlocks)
	seenLeaf := map[[2]int]bool{}
	for label := 0; label < d.NumLabels; label++ {
		for _, s := range d.LeafTrans[label] {
			k := [2]int{label, block[s]}
			if !seenLeaf[k] {
				seenLeaf[k] = true
				out.AddLeaf(label, block[s])
			}
		}
	}
	seenBin := map[[4]int]bool{}
	for key, ss := range d.BinTrans {
		for _, s := range ss {
			k := [4]int{key[0], block[key[1]], block[key[2]], block[s]}
			if !seenBin[k] {
				seenBin[k] = true
				out.AddBin(key[0], block[key[1]], block[key[2]], block[s])
			}
		}
	}
	for s := 0; s < n; s++ {
		if d.Final[s] {
			out.SetFinal(block[s])
		}
	}
	return out
}

// isDeterministic reports whether every transition has at most one
// target and leaf transitions are unique per label.
func isDeterministic(a *Automaton) bool {
	for _, ss := range a.LeafTrans {
		if len(uniqueStates(ss)) > 1 {
			return false
		}
	}
	for _, ss := range a.BinTrans {
		if len(uniqueStates(ss)) > 1 {
			return false
		}
	}
	return true
}

func uniqueStates(ss []int) []int {
	out := append([]int(nil), ss...)
	sort.Ints(out)
	n := 0
	for i, s := range out {
		if i == 0 || s != out[i-1] {
			out[n] = s
			n++
		}
	}
	return out[:n]
}

// CompileOpts configures CompileWith.
type CompileOpts struct {
	// Minimize keeps every intermediate automaton minimal (the MONA
	// regime); slower per step but smaller automata.
	Minimize bool
}

// CompileWith is Compile with options.
func CompileWith(f *mso.Formula, labels []string, opts CompileOpts) (*Automaton, *CompileStats, error) {
	elems, sets := f.FreeVars()
	if len(elems)+len(sets) > 0 {
		return nil, nil, fmt.Errorf("fta: formula has free variables %v %v", elems, sets)
	}
	c := &compiler{labels: labels, stats: &CompileStats{}, minimize: opts.Minimize}
	a, err := c.compile(f, nil)
	if err != nil {
		return nil, nil, err
	}
	return a, c.stats, nil
}
