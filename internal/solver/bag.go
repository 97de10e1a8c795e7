// Package solver is the generic semiring problem algebra behind the
// Section 5 solvers: a Problem describes how partial solutions propagate
// through the nodes of a nice tree decomposition (leaf / introduce /
// forget / join), and a Semiring fixes what is accumulated per state —
// reachability (decision), derivation counts (counting) or minimum cost
// with an argmin witness (optimization). A problem is written once and
// runs in all three modes by swapping the semiring; the evaluator rides
// the nice form's plan and chain-parallel scheduler
// (tree.Decomposition.Schedule), so tables are byte-identical at every
// worker count.
//
// This file holds the shared bag utilities: position maps and
// fixed-width bit-packed per-element status vectors. These
// subsume the private near-copies that the problem packages (threecol,
// vcover, domset, primality) each grew independently.
package solver

// Position returns the index of elem in the sorted bag, or -1 if the
// bag does not contain it.
func Position(bag []int, elem int) int {
	if i := Rank(bag, elem); i < len(bag) && bag[i] == elem {
		return i
	}
	return -1
}

// Rank returns the number of bag entries below elem: its index in the
// sorted bag, or the index it takes when inserted — where a forget
// node's element sat in its child's bag. Bags have at most width+1
// entries, so a linear scan beats binary search in practice.
func Rank(bag []int, elem int) int {
	for i, e := range bag {
		if e >= elem {
			return i
		}
	}
	return len(bag)
}

// Contains reports whether the sorted bag contains elem.
func Contains(bag []int, elem int) bool { return Position(bag, elem) >= 0 }

// Width is the number of bits a packed status vector spends per bag
// position. A uint64 state then holds up to 64/Width positions, with
// position 0 in the lowest bits — so iterating combinations by
// incrementing an integer varies position 0 fastest, the enumeration
// order the decision tables' first-derivation determinism pins.
type Width uint

// Max returns how many positions a uint64 can hold at this width.
func (w Width) Max() int { return 64 / int(w) }

func (w Width) mask() uint64 { return 1<<w - 1 }

// At extracts the status at position p.
func (w Width) At(s uint64, p int) uint64 {
	return s >> (uint(p) * uint(w)) & w.mask()
}

// Set overwrites the status at an existing position p.
func (w Width) Set(s uint64, p int, v uint64) uint64 {
	shift := uint(p) * uint(w)
	return s&^(w.mask()<<shift) | v<<shift
}

// Insert makes room at position p — shifting positions p and above up by
// one — and stores v there. It is the packed mirror of inserting elem
// into the sorted bag: when elem lands at Position(bag, elem)=p of the
// grown bag, the old statuses keep their elements.
func (w Width) Insert(s uint64, p int, v uint64) uint64 {
	shift := uint(p) * uint(w)
	low := s & (1<<shift - 1)
	high := s >> shift << (shift + uint(w))
	return high | low | v<<shift
}

// Drop removes position p, shifting positions above it down by one —
// the packed mirror of removing that element from the sorted bag.
func (w Width) Drop(s uint64, p int) uint64 {
	shift := uint(p) * uint(w)
	low := s & (1<<shift - 1)
	high := s >> (shift + uint(w)) << shift
	return high | low
}
