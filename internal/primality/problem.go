package primality

// Problem-algebra adapters: the Figure 6 transitions (interned int32
// states) and the Section 7 relevance transitions (encoded string
// states) as solver.Problem instances, evaluated by the generic
// semiring engine in place of the seed's direct DP-handler wiring.

import (
	"fmt"

	"repro/internal/solver"
)

// figure6 is the PRIMALITY algebra of Figure 6. aElem parameterizes the
// "result" rule: Accept fires on states certifying primality of that
// attribute element. Passes that scan acceptance themselves (the
// enumeration's per-leaf reads) set aElem to -1 and never call Accept.
type figure6 struct {
	c     *ctx
	aElem int
}

func (p figure6) Name() string { return fmt.Sprintf("primality(a=%d)", p.aElem) }

func (p figure6) Leaf(_ int, bag []int) []solver.Out[int32] {
	return p.c.leafStates(bag)
}

func (p figure6) Introduce(_ int, bag []int, elem int, child int32) []solver.Out[int32] {
	return p.c.introduce(bag, elem, child)
}

func (p figure6) Forget(_ int, _ []int, elem int, child int32) []solver.Out[int32] {
	return p.c.forget(elem, child)
}

func (p figure6) Join(_ int, _ []int, s1, s2 int32) []solver.Out[int32] {
	return p.c.branch(s1, s2)
}

func (p figure6) Accept(_ int, bag []int, s int32) bool {
	return p.c.accepting(bag, s, p.aElem)
}

// relevance is the Section 7 abduction algebra (is a hypothesis part of
// some minimal explanation?). Its states are the encoded rstate strings;
// the transitions are not perf-critical, so the []string returns of the
// rctx methods are wrapped rather than rewritten.
type relevance struct {
	c     *rctx
	aElem int
}

func wrapR(keys []string) []solver.Out[string] {
	out := make([]solver.Out[string], len(keys))
	for i, k := range keys {
		out[i].State = k
	}
	return out
}

func (p relevance) Name() string { return fmt.Sprintf("relevance(a=%d)", p.aElem) }

func (p relevance) Leaf(_ int, bag []int) []solver.Out[string] {
	return wrapR(p.c.rLeafStates(bag))
}

func (p relevance) Introduce(_ int, bag []int, elem int, child string) []solver.Out[string] {
	return wrapR(p.c.rIntroduce(bag, elem, child))
}

func (p relevance) Forget(_ int, _ []int, elem int, child string) []solver.Out[string] {
	return wrapR(p.c.rForget(elem, child))
}

func (p relevance) Join(_ int, _ []int, s1, s2 string) []solver.Out[string] {
	return wrapR(p.c.rBranch(s1, s2))
}

func (p relevance) Accept(_ int, bag []int, s string) bool {
	return p.c.rAccepting(bag, s, p.aElem)
}
