// Package bitset provides a compact growable bit set used throughout the
// library to represent sets of domain elements, vertices and attributes.
//
// The zero value is an empty set ready for use. All operations treat bits
// beyond the last stored word as zero, so sets of different capacities can
// be combined freely.
package bitset

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

const wordBits = 64

// Set is a set of non-negative integers backed by a []uint64.
type Set struct {
	words []uint64
}

// New returns an empty set with capacity for n elements preallocated.
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromSlice returns a set containing exactly the given elements.
func FromSlice(elems []int) *Set {
	s := &Set{}
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// grow extends s to hold word, in one amortized allocation however far
// past the end it lies.
func (s *Set) grow(word int) {
	if word < len(s.words) {
		return
	}
	n := len(s.words)
	s.words = slices.Grow(s.words, word+1-n)[:word+1]
	clear(s.words[n:]) // CopyFrom may have left stale words past the end
}

// Add inserts i into the set. i must be non-negative.
func (s *Set) Add(i int) {
	if i < 0 {
		panic(fmt.Sprintf("bitset: negative element %d", i))
	}
	w := i / wordBits
	s.grow(w)
	s.words[w] |= 1 << (i % wordBits)
}

// Remove deletes i from the set; removing an absent element is a no-op.
func (s *Set) Remove(i int) {
	w := i / wordBits
	if w < len(s.words) {
		s.words[w] &^= 1 << (i % wordBits)
	}
}

// Has reports whether i is in the set.
func (s *Set) Has(i int) bool {
	if i < 0 {
		return false
	}
	w := i / wordBits
	return w < len(s.words) && s.words[w]&(1<<(i%wordBits)) != 0
}

// Len returns the number of elements in the set.
func (s *Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// Clear removes all elements, keeping the allocated capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// CopyFrom makes s equal to t, reusing s's storage when possible.
func (s *Set) CopyFrom(t *Set) {
	if cap(s.words) < len(t.words) {
		s.words = make([]uint64, len(t.words))
	} else {
		s.words = s.words[:len(t.words)]
	}
	copy(s.words, t.words)
}

// IntersectLen returns |s ∩ t| without allocating.
func (s *Set) IntersectLen(t *Set) int {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	count := 0
	for i := 0; i < n; i++ {
		count += bits.OnesCount64(s.words[i] & t.words[i])
	}
	return count
}

// UnionWith adds every element of t to s.
func (s *Set) UnionWith(t *Set) {
	s.grow(len(t.words) - 1)
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// IntersectWith removes from s every element not in t.
func (s *Set) IntersectWith(t *Set) {
	for i := range s.words {
		if i < len(t.words) {
			s.words[i] &= t.words[i]
		} else {
			s.words[i] = 0
		}
	}
}

// DifferenceWith removes every element of t from s.
func (s *Set) DifferenceWith(t *Set) {
	for i := range s.words {
		if i < len(t.words) {
			s.words[i] &^= t.words[i]
		}
	}
}

// Union returns a new set s ∪ t.
func (s *Set) Union(t *Set) *Set {
	c := s.Clone()
	c.UnionWith(t)
	return c
}

// Intersect returns a new set s ∩ t.
func (s *Set) Intersect(t *Set) *Set {
	c := s.Clone()
	c.IntersectWith(t)
	return c
}

// Difference returns a new set s \ t.
func (s *Set) Difference(t *Set) *Set {
	c := s.Clone()
	c.DifferenceWith(t)
	return c
}

// SubsetOf reports whether every element of s is in t.
func (s *Set) SubsetOf(t *Set) bool {
	for i, w := range s.words {
		var tw uint64
		if i < len(t.words) {
			tw = t.words[i]
		}
		if w&^tw != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain the same elements.
func (s *Set) Equal(t *Set) bool {
	n := len(s.words)
	if len(t.words) > n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		var sw, tw uint64
		if i < len(s.words) {
			sw = s.words[i]
		}
		if i < len(t.words) {
			tw = t.words[i]
		}
		if sw != tw {
			return false
		}
	}
	return true
}

// Intersects reports whether s ∩ t is non-empty.
func (s *Set) Intersects(t *Set) bool {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// Elems returns the elements of the set in increasing order.
func (s *Set) Elems() []int {
	out := make([]int, 0, s.Len())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &^= 1 << b
		}
	}
	return out
}

// ForEach calls f for every element in increasing order; if f returns
// false, iteration stops.
func (s *Set) ForEach(f func(int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !f(wi*wordBits + b) {
				return
			}
			w &^= 1 << b
		}
	}
}

// Min returns the smallest element, or -1 if the set is empty.
func (s *Set) Min() int {
	for wi, w := range s.words {
		if w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Key returns a canonical string key for use in maps. Two sets have the
// same key iff they are Equal.
func (s *Set) Key() string {
	// Trim trailing zero words so capacity does not affect the key.
	n := len(s.words)
	for n > 0 && s.words[n-1] == 0 {
		n--
	}
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%016x", s.words[i])
	}
	return b.String()
}

// String renders the set as "{e1 e2 ...}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}
