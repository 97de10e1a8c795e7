// Package schema implements relational schemas (R, F) from database
// design theory (Section 2.1): attribute sets, functional dependencies,
// attribute-set closure, keys and prime attributes, plus the encoding of
// schemas as τ-structures over τ = {fd, att, lh, rh} (Section 2.2).
//
// The brute-force primality test here is the exponential reference oracle
// used to validate the paper's fixed-parameter tractable algorithms in
// internal/primality.
package schema

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/bitset"
	"repro/internal/structure"
)

// ErrTooLarge reports that an exponential reference oracle was asked
// about a schema beyond its hard size limit; test with errors.Is.
var ErrTooLarge = errors.New("schema: instance too large for brute force")

// FD is a functional dependency LHS → RHS with a single right-hand-side
// attribute (w.l.o.g., as in the paper). Attributes are indices into the
// schema's attribute list.
type FD struct {
	Name string
	LHS  []int
	RHS  int
}

// Schema is a relational schema (R, F).
type Schema struct {
	attrs  []string
	byName map[string]int
	fds    []FD
}

// New returns an empty schema.
func New() *Schema {
	return &Schema{byName: map[string]int{}}
}

// AddAttr adds (or finds) an attribute by name and returns its index.
func (s *Schema) AddAttr(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	i := len(s.attrs)
	s.attrs = append(s.attrs, name)
	s.byName[name] = i
	return i
}

// Attr returns the index of the named attribute.
func (s *Schema) Attr(name string) (int, bool) {
	i, ok := s.byName[name]
	return i, ok
}

// AttrName returns the name of attribute i.
func (s *Schema) AttrName(i int) string {
	if i < 0 || i >= len(s.attrs) {
		return fmt.Sprintf("#%d", i)
	}
	return s.attrs[i]
}

// NumAttrs returns |R|.
func (s *Schema) NumAttrs() int { return len(s.attrs) }

// NumFDs returns |F|.
func (s *Schema) NumFDs() int { return len(s.fds) }

// FDs returns the functional dependencies (not to be modified).
func (s *Schema) FDs() []FD { return s.fds }

// AddFD appends an FD over existing attribute indices. An empty name is
// replaced by f<k>.
func (s *Schema) AddFD(name string, lhs []int, rhs int) error {
	if rhs < 0 || rhs >= len(s.attrs) {
		return fmt.Errorf("schema: rhs attribute %d out of range", rhs)
	}
	seen := map[int]bool{}
	for _, a := range lhs {
		if a < 0 || a >= len(s.attrs) {
			return fmt.Errorf("schema: lhs attribute %d out of range", a)
		}
		if seen[a] {
			return fmt.Errorf("schema: duplicate lhs attribute %s", s.AttrName(a))
		}
		seen[a] = true
	}
	if name == "" {
		name = fmt.Sprintf("f%d", len(s.fds)+1)
	}
	s.fds = append(s.fds, FD{Name: name, LHS: append([]int(nil), lhs...), RHS: rhs})
	return nil
}

// AddFDByNames adds an FD given attribute names, creating attributes as
// needed.
func (s *Schema) AddFDByNames(name string, lhs []string, rhs string) error {
	lidx := make([]int, len(lhs))
	for i, n := range lhs {
		lidx[i] = s.AddAttr(n)
	}
	return s.AddFD(name, lidx, s.AddAttr(rhs))
}

// Parse reads a schema in the text format:
//
//	% comment
//	attrs a b c d e g        % optional; declares attribute order
//	a b -> c
//	c -> b
//
// Each FD line lists left-hand-side attributes, "->", and a single
// right-hand-side attribute. FDs are named f1, f2, … in order. A "%" or
// "#" starts a comment that runs to the end of its line, so no
// attribute name contains one and String's output parses back.
func Parse(src string) (sch *Schema, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("schema: internal parser error: %v", r)
		}
	}()
	s := New()
	for lineNo, raw := range strings.Split(src, "\n") {
		if i := strings.IndexAny(raw, "%#"); i >= 0 {
			raw = raw[:i]
		}
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		if fields := strings.Fields(line); fields[0] == "attrs" && !strings.Contains(line, "->") {
			for _, n := range fields[1:] {
				s.AddAttr(n)
			}
			continue
		}
		parts := strings.Split(line, "->")
		if len(parts) != 2 {
			return nil, fmt.Errorf("schema: line %d: expected 'lhs -> rhs'", lineNo+1)
		}
		lhs := strings.Fields(parts[0])
		rhs := strings.Fields(parts[1])
		if len(rhs) != 1 {
			return nil, fmt.Errorf("schema: line %d: expected a single rhs attribute", lineNo+1)
		}
		if err := s.AddFDByNames("", lhs, rhs[0]); err != nil {
			return nil, fmt.Errorf("schema: line %d: %w", lineNo+1, err)
		}
	}
	return s, nil
}

// MustParse is Parse that panics on error.
func MustParse(src string) *Schema {
	s, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return s
}

// String renders the schema in the format accepted by Parse.
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString("attrs")
	for _, a := range s.attrs {
		b.WriteByte(' ')
		b.WriteString(a)
	}
	b.WriteByte('\n')
	for _, f := range s.fds {
		names := make([]string, len(f.LHS))
		for i, a := range f.LHS {
			names[i] = s.AttrName(a)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "%s -> %s\n", strings.Join(names, " "), s.AttrName(f.RHS))
	}
	return b.String()
}

// Closure computes X⁺, the set of attributes determined by X, by the
// linear-time counting algorithm (Beeri–Bernstein): each FD keeps a count
// of left-hand-side attributes not yet derived; when it reaches zero the
// right-hand side is derived.
func (s *Schema) Closure(x *bitset.Set) *bitset.Set {
	closure := x.Clone()
	remaining := make([]int, len(s.fds))
	occ := make([][]int, len(s.attrs)) // attribute → FDs with it on the left
	var queue []int
	for fi, f := range s.fds {
		remaining[fi] = len(f.LHS)
		for _, a := range f.LHS {
			occ[a] = append(occ[a], fi)
		}
		if remaining[fi] == 0 && !closure.Has(f.RHS) {
			closure.Add(f.RHS)
			queue = append(queue, f.RHS)
		}
	}
	x.ForEach(func(a int) bool {
		if a < len(s.attrs) {
			queue = append(queue, a)
		}
		return true
	})
	for len(queue) > 0 {
		a := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, fi := range occ[a] {
			remaining[fi]--
			if remaining[fi] == 0 {
				rhs := s.fds[fi].RHS
				if !closure.Has(rhs) {
					closure.Add(rhs)
					queue = append(queue, rhs)
				}
			}
		}
	}
	return closure
}

// AllAttrs returns R as a bit set.
func (s *Schema) AllAttrs() *bitset.Set {
	out := bitset.New(len(s.attrs))
	for i := range s.attrs {
		out.Add(i)
	}
	return out
}

// IsSuperkey reports whether X⁺ = R.
func (s *Schema) IsSuperkey(x *bitset.Set) bool {
	return s.Closure(x).Equal(s.AllAttrs())
}

// IsKey reports whether X is a minimal superkey.
func (s *Schema) IsKey(x *bitset.Set) bool {
	if !s.IsSuperkey(x) {
		return false
	}
	ok := true
	x.ForEach(func(a int) bool {
		smaller := x.Clone()
		smaller.Remove(a)
		if s.IsSuperkey(smaller) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// IsClosed reports whether X⁺ = X.
func (s *Schema) IsClosed(x *bitset.Set) bool {
	return s.Closure(x).Equal(x)
}

// IsPrimeBruteForce decides primality of attribute a by the exponential
// characterization of Example 2.6: a is prime iff some closed Y ⊆ R with
// a ∉ Y has (Y ∪ {a})⁺ = R. Only for small schemas (reference oracle);
// beyond 24 attributes it returns ErrTooLarge.
func (s *Schema) IsPrimeBruteForce(a int) (bool, error) {
	n := len(s.attrs)
	if n > 24 {
		return false, fmt.Errorf("%w: brute-force primality limited to 24 attributes, got %d", ErrTooLarge, n)
	}
	for mask := uint64(0); mask < 1<<uint(n); mask++ {
		if mask&(1<<uint(a)) != 0 {
			continue
		}
		y := bitset.New(n)
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				y.Add(i)
			}
		}
		if !s.IsClosed(y) {
			continue
		}
		y.Add(a)
		if s.IsSuperkey(y) {
			return true, nil
		}
	}
	return false, nil
}

// PrimesBruteForce returns all prime attributes via IsPrimeBruteForce.
func (s *Schema) PrimesBruteForce() (*bitset.Set, error) {
	out := bitset.New(len(s.attrs))
	for a := range s.attrs {
		prime, err := s.IsPrimeBruteForce(a)
		if err != nil {
			return nil, err
		}
		if prime {
			out.Add(a)
		}
	}
	return out, nil
}

// Keys enumerates all keys (minimal superkeys) by checking every subset;
// exponential, for small schemas only — beyond 20 attributes it returns
// ErrTooLarge.
func (s *Schema) Keys() ([]*bitset.Set, error) {
	n := len(s.attrs)
	if n > 20 {
		return nil, fmt.Errorf("%w: key enumeration limited to 20 attributes, got %d", ErrTooLarge, n)
	}
	var out []*bitset.Set
	for mask := uint64(0); mask < 1<<uint(n); mask++ {
		x := bitset.New(n)
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				x.Add(i)
			}
		}
		if s.IsKey(x) {
			out = append(out, x)
		}
	}
	return out, nil
}

// Sig is the schema signature τ = {fd, att, lh, rh} of Section 2.2.
var Sig = structure.MustSignature(
	structure.Predicate{Name: "fd", Arity: 1},
	structure.Predicate{Name: "att", Arity: 1},
	structure.Predicate{Name: "lh", Arity: 2},
	structure.Predicate{Name: "rh", Arity: 2},
)

// ToStructure encodes the schema as a τ-structure (Example 2.2): the
// domain is R ∪ F with att/fd marking the two sorts and lh/rh relating
// attributes to the FDs they occur in.
func (s *Schema) ToStructure() *structure.Structure {
	st := structure.New(Sig)
	attrElem := make([]int, len(s.attrs))
	for i, name := range s.attrs {
		attrElem[i] = st.AddElem(name)
		st.MustAddTuple("att", attrElem[i])
	}
	for _, f := range s.fds {
		fe := st.AddElem(f.Name)
		st.MustAddTuple("fd", fe)
		for _, a := range f.LHS {
			st.MustAddTuple("lh", attrElem[a], fe)
		}
		st.MustAddTuple("rh", attrElem[f.RHS], fe)
	}
	return st
}

// FromStructure decodes a τ-structure over Sig back into a schema,
// together with the mapping from attribute indices to domain elements.
func FromStructure(st *structure.Structure) (*Schema, []int, error) {
	s := New()
	elemOf := []int{}
	attrIdx := map[int]int{}
	for _, t := range st.Tuples("att") {
		idx := s.AddAttr(st.Name(t[0]))
		attrIdx[t[0]] = idx
		for len(elemOf) <= idx {
			elemOf = append(elemOf, 0)
		}
		elemOf[idx] = t[0]
	}
	type protoFD struct {
		lhs []int
		rhs int
	}
	fds := map[int]*protoFD{}
	order := []int{}
	for _, t := range st.Tuples("fd") {
		fds[t[0]] = &protoFD{rhs: -1}
		order = append(order, t[0])
	}
	sort.Ints(order)
	for _, t := range st.Tuples("lh") {
		f, ok := fds[t[1]]
		if !ok {
			return nil, nil, fmt.Errorf("schema: lh references non-FD %s", st.Name(t[1]))
		}
		a, ok := attrIdx[t[0]]
		if !ok {
			return nil, nil, fmt.Errorf("schema: lh references non-attribute %s", st.Name(t[0]))
		}
		f.lhs = append(f.lhs, a)
	}
	for _, t := range st.Tuples("rh") {
		f, ok := fds[t[1]]
		if !ok {
			return nil, nil, fmt.Errorf("schema: rh references non-FD %s", st.Name(t[1]))
		}
		a, ok := attrIdx[t[0]]
		if !ok {
			return nil, nil, fmt.Errorf("schema: rh references non-attribute %s", st.Name(t[0]))
		}
		if f.rhs >= 0 {
			return nil, nil, fmt.Errorf("schema: FD %s has two right-hand sides", st.Name(t[1]))
		}
		f.rhs = a
	}
	for _, fe := range order {
		f := fds[fe]
		if f.rhs < 0 {
			return nil, nil, fmt.Errorf("schema: FD %s has no right-hand side", st.Name(fe))
		}
		sort.Ints(f.lhs)
		if err := s.AddFD(st.Name(fe), f.lhs, f.rhs); err != nil {
			return nil, nil, err
		}
	}
	return s, elemOf, nil
}
