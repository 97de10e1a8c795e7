package solver

import "math/big"

// Semiring fixes what the evaluator accumulates per (node, state). The
// engine computes, for every derivation of a state, the ⊗-product of
// the child values and the lifted transition cost — Weight for a leaf
// state, Extend for a unary transition, Merge for a join — and folds
// alternative derivations with Plus (⊕).
//
// Contracts the engine relies on:
//
//   - Weight, Extend and Merge must NOT mutate their arguments and must
//     return a value safe for the caller to own: child values are
//     shared by every derivation that reads them, and the results are
//     stored directly in table cells (return a fresh value for
//     reference types).
//   - Plus(acc, alt) owns acc (the value stored in the table) and may
//     mutate it in place for reference types. It returns the value to
//     keep and whether the stored cell must be REPLACED — value and
//     provenance — because alt displaced acc as the preferred
//     derivation. Returning false means the stored cell already reflects
//     the fold (either unchanged, or mutated in place).
//   - Both must be order-independent up to the replacement rule, so the
//     chain-parallel schedule yields identical tables at any worker
//     count. All three semirings below fold by ∨, + or min, which are
//     associative and commutative.
type Semiring[V any] interface {
	// Weight lifts a transition's cost delta into the value domain.
	Weight(cost int) V
	// Plus folds an alternative derivation into the accumulated value.
	Plus(acc, alt V) (V, bool)
	// Extend is child ⊗ Weight(cost): a unary transition's value, in one
	// dynamic call per output.
	Extend(child V, cost int) V
	// Merge is v1 ⊗ v2 ⊗ Weight(cost): a join's value.
	Merge(v1, v2 V, cost int) V
}

// Decision is the boolean semiring (∨, ∧): a state's value is simply
// "derivable", and the first derivation's provenance is kept, so the
// witness follows the table's deterministic first-derivation order.
type Decision struct{}

// Weight lifts any cost to true (derivable).
func (Decision) Weight(int) bool { return true }

// Plus is logical or; the stored cell never needs replacing, so the
// first derivation's provenance wins.
func (Decision) Plus(acc, alt bool) (bool, bool) { return acc || alt, false }

// Extend of a derivable child is derivable.
func (Decision) Extend(child bool, _ int) bool { return child }

// Merge is logical and.
func (Decision) Merge(v1, v2 bool, _ int) bool { return v1 && v2 }

// Counting is the arithmetic semiring over big.Int (+, ×): a state's
// value is its number of distinct derivations — for partition problems,
// the number of solutions of the subtree whose bag restriction is the
// state. Exact at any magnitude, unlike the uint64 counters this
// replaces.
type Counting struct{}

// Weight lifts any cost to 1 (one derivation). The value is fresh on
// every call: leaf weights are stored directly in table cells, which
// Plus later mutates in place.
func (Counting) Weight(int) *big.Int { return big.NewInt(1) }

// Plus adds in place into the accumulator it owns.
func (Counting) Plus(acc, alt *big.Int) (*big.Int, bool) {
	return acc.Add(acc, alt), false
}

// Extend multiplies by Weight(cost) = 1 — but must still return a fresh
// value: the result lands in a table cell that Plus mutates in place,
// and the child is shared.
func (Counting) Extend(child *big.Int, _ int) *big.Int { return new(big.Int).Set(child) }

// Merge multiplies the two child counts into a fresh value.
func (Counting) Merge(v1, v2 *big.Int, _ int) *big.Int { return new(big.Int).Mul(v1, v2) }

// MinCost is the tropical semiring (min, +): a state's value is the
// minimum accumulated cost over its derivations, and the provenance
// tracks one argmin derivation — strictly-better replacement, so ties
// keep the first derivation and the witness stays deterministic.
type MinCost struct{}

// Weight lifts a cost delta to itself.
func (MinCost) Weight(cost int) int { return cost }

// Plus keeps the minimum, replacing the stored cell only on strict
// improvement.
func (MinCost) Plus(acc, alt int) (int, bool) {
	if alt < acc {
		return alt, true
	}
	return acc, false
}

// Extend adds the cost delta to the child's accumulated cost.
func (MinCost) Extend(child, cost int) int { return child + cost }

// Merge sums the children's costs and the delta.
func (MinCost) Merge(v1, v2, cost int) int { return v1 + v2 + cost }
