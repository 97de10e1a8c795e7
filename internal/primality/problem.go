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

func (p figure6) Leaf(dst []solver.Out[int32], _ int, bag []int) []solver.Out[int32] {
	return p.c.leafStates(dst, bag)
}

func (p figure6) Introduce(dst []solver.Out[int32], _ int, bag []int, elem int, child int32) []solver.Out[int32] {
	return p.c.introduce(dst, bag, elem, child)
}

func (p figure6) Forget(dst []solver.Out[int32], _ int, _ []int, elem int, child int32) []solver.Out[int32] {
	return p.c.forget(dst, elem, child)
}

func (p figure6) Join(dst []solver.Out[int32], _ int, _ []int, s1, s2 int32) []solver.Out[int32] {
	return p.c.branch(dst, s1, s2)
}

func (p figure6) Accept(_ int, bag []int, s int32) bool {
	return p.c.accepting(bag, s, p.aElem)
}

// relevance is the Section 7 abduction algebra (is a hypothesis part of
// some minimal explanation?). Its states are the encoded rstate strings.
type relevance struct {
	c     *rctx
	aElem int
}

func (p relevance) Name() string { return fmt.Sprintf("relevance(a=%d)", p.aElem) }

func (p relevance) Leaf(dst []solver.Out[string], _ int, bag []int) []solver.Out[string] {
	return p.c.rLeafStates(dst, bag)
}

func (p relevance) Introduce(dst []solver.Out[string], _ int, bag []int, elem int, child string) []solver.Out[string] {
	return p.c.rIntroduce(dst, bag, elem, child)
}

func (p relevance) Forget(dst []solver.Out[string], _ int, _ []int, elem int, child string) []solver.Out[string] {
	return p.c.rForget(dst, elem, child)
}

func (p relevance) Join(dst []solver.Out[string], _ int, _ []int, s1, s2 string) []solver.Out[string] {
	return p.c.rBranch(dst, s1, s2)
}

func (p relevance) Accept(_ int, bag []int, s string) bool {
	return p.c.rAccepting(bag, s, p.aElem)
}
