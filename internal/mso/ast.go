// Package mso implements Monadic Second Order logic over finite
// τ-structures (Section 2.3): formulas with first-order (element)
// variables and monadic second-order (set) variables, a parser, and a
// naive model checker whose set quantifiers enumerate all subsets of the
// domain.
//
// The naive checker doubles as this repository's substitute for MONA, the
// baseline of the paper's Section 6 experiments (see DESIGN.md): it is
// exact, exponential in the data, and runs under a step budget whose
// exhaustion models MONA's out-of-memory failures.
package mso

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/structure"
)

// Kind discriminates formula nodes.
type Kind int

// Formula node kinds.
const (
	KAtom    Kind = iota // Pred(Args...)
	KEq                  // x = y
	KIn                  // x in X
	KNot                 // ~φ
	KAnd                 // φ & ψ
	KOr                  // φ | ψ
	KImpl                // φ -> ψ
	KIff                 // φ <-> ψ
	KExistsE             // exists x φ
	KForallE             // forall x φ
	KExistsS             // exists X φ
	KForallS             // forall X φ
	KTrue                // ⊤
	KFalse               // ⊥
)

// Formula is an MSO formula in negation-unrestricted form. By convention
// element variables are lower-case and set variables upper-case
// identifiers (the parser enforces this; programmatic construction should
// follow it).
type Formula struct {
	Kind Kind
	Pred string     // KAtom
	Args []string   // KAtom: element variable names
	X, Y string     // KEq: X=Y are element vars; KIn: X element var, Y set var
	Var  string     // quantifiers: bound variable
	Sub  []*Formula // operands
}

// Constructors.

// True returns the ⊤ formula.
func True() *Formula { return &Formula{Kind: KTrue} }

// False returns the ⊥ formula.
func False() *Formula { return &Formula{Kind: KFalse} }

// Atom returns the atomic formula pred(args...).
func Atom(pred string, args ...string) *Formula {
	return &Formula{Kind: KAtom, Pred: pred, Args: args}
}

// Eq returns x = y.
func Eq(x, y string) *Formula { return &Formula{Kind: KEq, X: x, Y: y} }

// In returns x ∈ X.
func In(x, set string) *Formula { return &Formula{Kind: KIn, X: x, Y: set} }

// Not returns ¬φ.
func Not(f *Formula) *Formula { return &Formula{Kind: KNot, Sub: []*Formula{f}} }

// And returns the conjunction of the operands (⊤ for none).
func And(fs ...*Formula) *Formula { return nary(KAnd, KTrue, fs) }

// Or returns the disjunction of the operands (⊥ for none).
func Or(fs ...*Formula) *Formula { return nary(KOr, KFalse, fs) }

func nary(k, empty Kind, fs []*Formula) *Formula {
	switch len(fs) {
	case 0:
		return &Formula{Kind: empty}
	case 1:
		return fs[0]
	}
	return &Formula{Kind: k, Sub: fs}
}

// Impl returns φ → ψ.
func Impl(f, g *Formula) *Formula { return &Formula{Kind: KImpl, Sub: []*Formula{f, g}} }

// Iff returns φ ↔ ψ.
func Iff(f, g *Formula) *Formula { return &Formula{Kind: KIff, Sub: []*Formula{f, g}} }

// ExistsE returns ∃x φ for an element variable x.
func ExistsE(v string, f *Formula) *Formula {
	return &Formula{Kind: KExistsE, Var: v, Sub: []*Formula{f}}
}

// ForallE returns ∀x φ for an element variable x.
func ForallE(v string, f *Formula) *Formula {
	return &Formula{Kind: KForallE, Var: v, Sub: []*Formula{f}}
}

// ExistsS returns ∃X φ for a set variable X.
func ExistsS(v string, f *Formula) *Formula {
	return &Formula{Kind: KExistsS, Var: v, Sub: []*Formula{f}}
}

// ForallS returns ∀X φ for a set variable X.
func ForallS(v string, f *Formula) *Formula {
	return &Formula{Kind: KForallS, Var: v, Sub: []*Formula{f}}
}

// Subset returns the formula X ⊆ Y, desugared to ∀z (z∈X → z∈Y) so
// that quantifier depth accounting stays exact. z is named "z_" then X
// and Y lower-cased (z_xy): longer than either, it captures neither,
// and one text always parses to one formula.
func Subset(x, y string) *Formula {
	v := "z_" + strings.ToLower(x+y)
	return ForallE(v, Impl(In(v, x), In(v, y)))
}

// ProperSubset returns X ⊂ Y as X ⊆ Y ∧ ¬(Y ⊆ X).
func ProperSubset(x, y string) *Formula {
	return And(Subset(x, y), Not(Subset(y, x)))
}

// QuantifierDepth returns the maximum nesting of quantifiers (element and
// set quantifiers both count), the k of ≡^MSO_k.
func (f *Formula) QuantifierDepth() int {
	switch f.Kind {
	case KAtom, KEq, KIn, KTrue, KFalse:
		return 0
	case KExistsE, KForallE, KExistsS, KForallS:
		return 1 + f.Sub[0].QuantifierDepth()
	default:
		d := 0
		for _, s := range f.Sub {
			if sd := s.QuantifierDepth(); sd > d {
				d = sd
			}
		}
		return d
	}
}

// Mentions reports whether pred occurs in an atom of the formula. A
// formula mentioning only the predicates of τ' ⊆ τ is a τ'-formula:
// its truth in a τ-structure is its truth in the τ'-reduct. Mentions
// allocates nothing, so cache-key paths may call it per lookup.
func (f *Formula) Mentions(pred string) bool {
	if f.Kind == KAtom {
		return f.Pred == pred
	}
	for _, s := range f.Sub {
		if s.Mentions(pred) {
			return true
		}
	}
	return false
}

// CheckSignature reports the first atom whose predicate sig lacks or
// declares at another arity: such a formula is not a formula over sig.
// It allocates nothing unless it fails, so request paths may call it
// per query.
func (f *Formula) CheckSignature(sig *structure.Signature) error {
	if f.Kind == KAtom {
		_, p, ok := sig.Lookup(f.Pred)
		if !ok {
			return fmt.Errorf("mso: unknown predicate %s", f.Pred)
		}
		if p.Arity != len(f.Args) {
			return fmt.Errorf("mso: predicate %s expects %d arguments, got %d", f.Pred, p.Arity, len(f.Args))
		}
		return nil
	}
	for _, s := range f.Sub {
		if err := s.CheckSignature(sig); err != nil {
			return err
		}
	}
	return nil
}

// CheckFree reports an error unless the formula's only free variable is
// the element variable x, or, with x empty, it has none: the shapes of
// a unary query and a sentence. Like CheckSignature, it allocates
// nothing unless it fails.
func (f *Formula) CheckFree(x string) error {
	found := false
	err := f.eachFree(nil, func(v string, set bool) error {
		switch {
		case set:
			return fmt.Errorf("mso: set variable %s is free", v)
		case v == x:
			found = true
		case x == "":
			return fmt.Errorf("mso: %s is free in a sentence", v)
		default:
			return fmt.Errorf("mso: %s is free, want only %s", v, x)
		}
		return nil
	})
	if err == nil && x != "" && !found {
		err = fmt.Errorf("mso: %s does not occur free", x)
	}
	return err
}

// FreeVars returns the free element and set variables, sorted.
func (f *Formula) FreeVars() (elems, sets []string) {
	em, sm := map[string]bool{}, map[string]bool{}
	f.eachFree(nil, func(v string, set bool) error {
		if set {
			sm[v] = true
		} else {
			em[v] = true
		}
		return nil
	})
	for v := range em {
		elems = append(elems, v)
	}
	for v := range sm {
		sets = append(sets, v)
	}
	sort.Strings(elems)
	sort.Strings(sets)
	return elems, sets
}

// scope lists the variables bound around a subformula, innermost
// first, linked through the frames of eachFree.
type scope struct {
	name string
	up   *scope
}

func (s *scope) binds(v string) bool {
	for ; s != nil; s = s.up {
		if s.name == v {
			return true
		}
	}
	return false
}

// eachFree calls visit on each free occurrence of a variable in f, set
// telling a set variable from an element variable, and stops at the
// first error visit returns. bound lists the variables bound around f.
func (f *Formula) eachFree(bound *scope, visit func(v string, set bool) error) error {
	vars := f.Args
	switch f.Kind {
	case KEq:
		vars = []string{f.X, f.Y}
	case KIn:
		if !bound.binds(f.Y) {
			if err := visit(f.Y, true); err != nil {
				return err
			}
		}
		vars = []string{f.X}
	case KExistsE, KForallE, KExistsS, KForallS:
		inner := scope{f.Var, bound}
		return f.Sub[0].eachFree(&inner, visit)
	}
	for _, v := range vars {
		if !bound.binds(v) {
			if err := visit(v, false); err != nil {
				return err
			}
		}
	}
	for _, s := range f.Sub {
		if err := s.eachFree(bound, visit); err != nil {
			return err
		}
	}
	return nil
}

// String renders the formula in the syntax accepted by Parse.
func (f *Formula) String() string {
	var b strings.Builder
	f.write(&b)
	return b.String()
}

func (f *Formula) write(b *strings.Builder) {
	switch f.Kind {
	case KTrue:
		b.WriteString("true")
	case KFalse:
		b.WriteString("false")
	case KAtom:
		b.WriteString(f.Pred)
		b.WriteByte('(')
		b.WriteString(strings.Join(f.Args, ","))
		b.WriteByte(')')
	case KEq:
		fmt.Fprintf(b, "%s = %s", f.X, f.Y)
	case KIn:
		fmt.Fprintf(b, "%s in %s", f.X, f.Y)
	case KNot:
		b.WriteString("~(")
		f.Sub[0].write(b)
		b.WriteByte(')')
	case KAnd, KOr, KImpl, KIff:
		op := map[Kind]string{KAnd: " & ", KOr: " | ", KImpl: " -> ", KIff: " <-> "}[f.Kind]
		b.WriteByte('(')
		for i, s := range f.Sub {
			if i > 0 {
				b.WriteString(op)
			}
			s.write(b)
		}
		b.WriteByte(')')
	case KExistsE, KExistsS:
		// The outer parentheses matter: the parser gives quantifiers
		// maximal scope, so an unparenthesized quantifier would swallow a
		// following binary operator on reparse.
		fmt.Fprintf(b, "(exists %s (", f.Var)
		f.Sub[0].write(b)
		b.WriteString("))")
	case KForallE, KForallS:
		fmt.Fprintf(b, "(forall %s (", f.Var)
		f.Sub[0].write(b)
		b.WriteString("))")
	}
}
