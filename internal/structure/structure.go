// Package structure implements finite relational structures (τ-structures)
// as defined in Section 2.2 of the paper: a finite domain together with a
// relation for every predicate symbol of a signature τ.
//
// Elements are identified by dense integer IDs so that sets of elements can
// be represented as bit sets; every element also carries a human-readable
// name used by parsers, printers and error messages.
package structure

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bitset"
)

// Predicate is a predicate symbol with its arity.
type Predicate struct {
	Name  string
	Arity int
}

// Signature is an ordered list of predicate symbols (a vocabulary τ).
type Signature struct {
	preds []Predicate
	index map[string]int
}

// NewSignature builds a signature from the given predicate symbols.
// Predicate names must be distinct.
func NewSignature(preds ...Predicate) (*Signature, error) {
	s := &Signature{index: make(map[string]int, len(preds))}
	for _, p := range preds {
		if p.Name == "" {
			return nil, fmt.Errorf("structure: empty predicate name")
		}
		if p.Arity < 0 {
			return nil, fmt.Errorf("structure: predicate %s has negative arity", p.Name)
		}
		if _, dup := s.index[p.Name]; dup {
			return nil, fmt.Errorf("structure: duplicate predicate %s", p.Name)
		}
		s.index[p.Name] = len(s.preds)
		s.preds = append(s.preds, p)
	}
	return s, nil
}

// MustSignature is NewSignature that panics on error; for tests and
// package-level variables describing fixed vocabularies.
func MustSignature(preds ...Predicate) *Signature {
	s, err := NewSignature(preds...)
	if err != nil {
		panic(err)
	}
	return s
}

// Predicates returns the predicate symbols in declaration order.
func (s *Signature) Predicates() []Predicate { return s.preds }

// Lookup returns the index and definition of the named predicate.
func (s *Signature) Lookup(name string) (int, Predicate, bool) {
	i, ok := s.index[name]
	if !ok {
		return -1, Predicate{}, false
	}
	return i, s.preds[i], true
}

// Arity returns the arity of the named predicate, or -1 if unknown.
func (s *Signature) Arity(name string) int {
	if i, ok := s.index[name]; ok {
		return s.preds[i].Arity
	}
	return -1
}

// Extend returns a new signature with the additional predicates appended.
func (s *Signature) Extend(preds ...Predicate) (*Signature, error) {
	all := make([]Predicate, 0, len(s.preds)+len(preds))
	all = append(all, s.preds...)
	all = append(all, preds...)
	return NewSignature(all...)
}

// Structure is a finite τ-structure: a domain of named elements plus one
// relation per predicate of the signature.
//
// Mutation contract: a Structure is NOT safe for concurrent mutation, or
// for mutation concurrent with reads. Layers that cache artifacts keyed
// on structure content (session.Session in particular) require all edits
// after binding to go through their serialized entry point
// (Session.Mutate); direct AddElem/AddTuple/RemoveTuple calls on a bound
// structure race with in-flight builds. Every successful mutation
// advances Rev(); the session keeps its cached decomposition across an
// edit only if the decomposition still covers the edited structure.
type Structure struct {
	sig    *Signature
	names  []string
	byName map[string]int
	rels   [][][]int        // rels[p] = list of tuples (element IDs)
	relSet []map[string]int // relSet[p] = tupleKey → index into rels[p]
	rev    uint64           // count of successful mutations since creation
}

// New returns an empty structure over the given signature.
func New(sig *Signature) *Structure {
	st := &Structure{
		sig:    sig,
		byName: make(map[string]int),
		rels:   make([][][]int, len(sig.preds)),
		relSet: make([]map[string]int, len(sig.preds)),
	}
	for i := range st.relSet {
		st.relSet[i] = make(map[string]int)
	}
	return st
}

// Rev returns the structure's revision: the number of successful
// mutations (element additions, tuple inserts, tuple retractions) since
// creation. Deduplicated re-inserts and failed mutations do not advance
// the revision.
func (st *Structure) Rev() uint64 { return st.rev }

// Sig returns the structure's signature.
func (st *Structure) Sig() *Signature { return st.sig }

// Size returns the number of domain elements.
func (st *Structure) Size() int { return len(st.names) }

// AddElem adds a fresh element with the given name and returns its ID.
// Adding an existing name returns the existing ID.
func (st *Structure) AddElem(name string) int {
	if id, ok := st.byName[name]; ok {
		return id
	}
	id := len(st.names)
	st.names = append(st.names, name)
	st.byName[name] = id
	st.rev++
	return id
}

// Name returns the name of element id.
func (st *Structure) Name(id int) string {
	if id < 0 || id >= len(st.names) {
		return fmt.Sprintf("#%d", id)
	}
	return st.names[id]
}

// Names translates a tuple of element IDs to their names.
func (st *Structure) Names(tuple []int) []string {
	out := make([]string, len(tuple))
	for i, e := range tuple {
		out[i] = st.Name(e)
	}
	return out
}

// Elem returns the ID of the named element.
func (st *Structure) Elem(name string) (int, bool) {
	id, ok := st.byName[name]
	return id, ok
}

// Dom returns all element IDs (0..Size-1) as a slice.
func (st *Structure) Dom() []int {
	out := make([]int, len(st.names))
	for i := range out {
		out[i] = i
	}
	return out
}

// DomSet returns the domain as a bit set.
func (st *Structure) DomSet() *bitset.Set {
	s := bitset.New(len(st.names))
	for i := range st.names {
		s.Add(i)
	}
	return s
}

// appendTupleKey appends tuple's relation-set key to dst: its elements
// in decimal, comma-separated. A lookup indexes with
// string(appendTupleKey(buf[:0], t)) on a stack array, which the
// compiler probes the map with without allocating the string; an insert
// stores the converted key, which allocates.
func appendTupleKey(dst []byte, tuple []int) []byte {
	for i, e := range tuple {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(e), 10)
	}
	return dst
}

// AddTuple inserts a tuple into the relation of the named predicate.
// All elements must already exist in the domain.
func (st *Structure) AddTuple(pred string, tuple ...int) error {
	pi, p, ok := st.sig.Lookup(pred)
	if !ok {
		return fmt.Errorf("structure: unknown predicate %s", pred)
	}
	if len(tuple) != p.Arity {
		return fmt.Errorf("structure: %s expects %d arguments, got %d", pred, p.Arity, len(tuple))
	}
	for _, e := range tuple {
		if e < 0 || e >= len(st.names) {
			return fmt.Errorf("structure: element %d out of range in %s tuple", e, pred)
		}
	}
	var buf [64]byte
	key := appendTupleKey(buf[:0], tuple)
	if _, dup := st.relSet[pi][string(key)]; dup {
		return nil
	}
	cp := make([]int, len(tuple))
	copy(cp, tuple)
	st.relSet[pi][string(key)] = len(st.rels[pi])
	st.rels[pi] = append(st.rels[pi], cp)
	st.rev++
	return nil
}

// RemoveTuple retracts a tuple from the relation of the named predicate,
// reporting whether it was present. Removing an absent tuple (or one
// over an unknown predicate) is a no-op and does not advance Rev. The
// relation's stored tuple order is not preserved (swap-remove).
func (st *Structure) RemoveTuple(pred string, tuple ...int) bool {
	pi, _, ok := st.sig.Lookup(pred)
	if !ok {
		return false
	}
	var buf [64]byte
	key := appendTupleKey(buf[:0], tuple)
	idx, present := st.relSet[pi][string(key)]
	if !present {
		return false
	}
	delete(st.relSet[pi], string(key))
	last := len(st.rels[pi]) - 1
	if idx != last {
		moved := st.rels[pi][last]
		st.rels[pi][idx] = moved
		st.relSet[pi][string(appendTupleKey(buf[:0], moved))] = idx
	}
	st.rels[pi][last] = nil
	st.rels[pi] = st.rels[pi][:last]
	st.rev++
	return true
}

// RemoveFact is RemoveTuple given element names; unknown names report
// false (such a tuple cannot be present).
func (st *Structure) RemoveFact(pred string, names ...string) bool {
	tuple := make([]int, len(names))
	for i, n := range names {
		id, ok := st.byName[n]
		if !ok {
			return false
		}
		tuple[i] = id
	}
	return st.RemoveTuple(pred, tuple...)
}

// MustAddTuple is AddTuple that panics on error.
func (st *Structure) MustAddTuple(pred string, tuple ...int) {
	if err := st.AddTuple(pred, tuple...); err != nil {
		panic(err)
	}
}

// AddFact adds a tuple given element names, creating elements as needed.
func (st *Structure) AddFact(pred string, names ...string) error {
	tuple := make([]int, len(names))
	for i, n := range names {
		tuple[i] = st.AddElem(n)
	}
	return st.AddTuple(pred, tuple...)
}

// Has reports whether the tuple is in the relation of pred.
func (st *Structure) Has(pred string, tuple ...int) bool {
	pi, _, ok := st.sig.Lookup(pred)
	if !ok {
		return false
	}
	return st.HasIdx(pi, tuple)
}

// HasIdx is Has by predicate index (hot path for evaluators). It does
// not allocate.
func (st *Structure) HasIdx(pi int, tuple []int) bool {
	var buf [64]byte
	_, in := st.relSet[pi][string(appendTupleKey(buf[:0], tuple))]
	return in
}

// Tuples returns the tuples of the named predicate. The returned slice
// must not be modified.
func (st *Structure) Tuples(pred string) [][]int {
	pi, _, ok := st.sig.Lookup(pred)
	if !ok {
		return nil
	}
	return st.rels[pi]
}

// TuplesIdx returns the tuples of the predicate with the given index.
func (st *Structure) TuplesIdx(pi int) [][]int { return st.rels[pi] }

// NumTuples returns the total number of tuples across all relations.
func (st *Structure) NumTuples() int {
	n := 0
	for _, r := range st.rels {
		n += len(r)
	}
	return n
}

// Induced returns the substructure induced by the given element set, along
// with the mapping from old element IDs to new ones. Element names are
// preserved. This implements the I(A, S, s) construction of Definition 3.2
// (the distinguished tuple is handled by the caller via the mapping).
func (st *Structure) Induced(elems *bitset.Set) (*Structure, map[int]int) {
	sub := New(st.sig)
	oldToNew := make(map[int]int, elems.Len())
	elems.ForEach(func(e int) bool {
		if e < len(st.names) {
			oldToNew[e] = sub.AddElem(st.names[e])
		}
		return true
	})
	for pi := range st.rels {
		name := st.sig.preds[pi].Name
		for _, tuple := range st.rels[pi] {
			inside := true
			for _, e := range tuple {
				if !elems.Has(e) {
					inside = false
					break
				}
			}
			if !inside {
				continue
			}
			mapped := make([]int, len(tuple))
			for i, e := range tuple {
				mapped[i] = oldToNew[e]
			}
			// Tuples of an existing structure are always valid in the image.
			if err := sub.AddTuple(name, mapped...); err != nil {
				panic(err)
			}
		}
	}
	return sub, oldToNew
}

// Clone returns a deep copy of the structure, including its revision
// counter.
func (st *Structure) Clone() *Structure {
	c := New(st.sig)
	c.names = append([]string(nil), st.names...)
	for n, id := range st.byName {
		c.byName[n] = id
	}
	var buf [64]byte
	for pi, tuples := range st.rels {
		for i, t := range tuples {
			cp := make([]int, len(t))
			copy(cp, t)
			c.rels[pi] = append(c.rels[pi], cp)
			c.relSet[pi][string(appendTupleKey(buf[:0], t))] = i
		}
	}
	c.rev = st.rev
	return c
}

// AtomicTypeKey returns a canonical key describing which relations hold
// among the positions of the given tuple — the "equivalence of bags"
// relation of Definition 3.4 extended with the equality pattern of the
// tuple. Two tuples ā, b̄ satisfy ā ≡ b̄ (Def. 3.4) over their structures
// iff their AtomicTypeKeys coincide.
func (st *Structure) AtomicTypeKey(tuple []int) string {
	var b strings.Builder
	// Equality pattern between positions.
	for i := range tuple {
		for j := i + 1; j < len(tuple); j++ {
			if tuple[i] == tuple[j] {
				fmt.Fprintf(&b, "=%d.%d;", i, j)
			}
		}
	}
	for pi, p := range st.sig.preds {
		args := make([]int, p.Arity)
		var rec func(pos int)
		rec = func(pos int) {
			if pos == p.Arity {
				actual := make([]int, p.Arity)
				for i, idx := range args {
					actual[i] = tuple[idx]
				}
				if st.HasIdx(pi, actual) {
					fmt.Fprintf(&b, "%d(", pi)
					for i, idx := range args {
						if i > 0 {
							b.WriteByte(',')
						}
						fmt.Fprintf(&b, "%d", idx)
					}
					b.WriteString(");")
				}
				return
			}
			for idx := range tuple {
				args[pos] = idx
				rec(pos + 1)
			}
		}
		rec(0)
	}
	return b.String()
}

// String renders the structure in the fact-list text format accepted by
// Parse, with elements and tuples in deterministic order.
func (st *Structure) String() string {
	var b strings.Builder
	b.WriteString("dom")
	for _, n := range st.names {
		b.WriteByte(' ')
		b.WriteString(n)
	}
	b.WriteString(".\n")
	for pi, p := range st.sig.preds {
		lines := make([]string, 0, len(st.rels[pi]))
		for _, t := range st.rels[pi] {
			lines = append(lines, fmt.Sprintf("%s(%s).", p.Name, strings.Join(st.Names(t), ",")))
		}
		sort.Strings(lines)
		for _, l := range lines {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	return b.String()
}
