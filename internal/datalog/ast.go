// Package datalog implements a datalog engine: abstract syntax, a parser,
// stratified semipositive evaluation by semi-naive bottom-up iteration,
// and the linear-time evaluation of quasi-guarded programs of Theorem 4.4
// (guard-driven grounding followed by unit resolution over the ground
// Horn program).
//
// Monadic datalog — all intensional predicates unary — is the fragment the
// paper targets (Definition 4.1); the engine accepts arbitrary arities and
// provides IsMonadic to check the restriction.
package datalog

import (
	"fmt"
	"slices"
	"strings"
)

// Term is a variable or a constant. Exactly one of Var/Const is set.
type Term struct {
	Var   string
	Const string
}

// V returns a variable term.
func V(name string) Term { return Term{Var: name} }

// C returns a constant term.
func C(name string) Term { return Term{Const: name} }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

func (t Term) String() string {
	if t.IsVar() {
		return t.Var
	}
	return t.Const
}

// Atom is a (possibly negated) predicate applied to terms. Negation may
// only occur in rule bodies.
type Atom struct {
	Pred    string
	Args    []Term
	Negated bool
}

// NewAtom builds a positive atom.
func NewAtom(pred string, args ...Term) Atom {
	return Atom{Pred: pred, Args: args}
}

// Not returns the negated version of the atom.
func (a Atom) Not() Atom {
	a.Negated = true
	return a
}

func (a Atom) String() string {
	var b strings.Builder
	if a.Negated {
		b.WriteString("not ")
	}
	b.WriteString(a.Pred)
	if len(a.Args) > 0 {
		b.WriteByte('(')
		for i, t := range a.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(t.String())
		}
		b.WriteByte(')')
	}
	return b.String()
}

// Vars appends the variables of the atom to dst (with duplicates).
func (a Atom) Vars(dst []string) []string {
	for _, t := range a.Args {
		if t.IsVar() {
			dst = append(dst, t.Var)
		}
	}
	return dst
}

// Rule is a Horn rule Head ← Body. An empty body makes the rule a fact
// (its head must then be ground).
type Rule struct {
	Head Atom
	Body []Atom
}

func (r Rule) String() string {
	if len(r.Body) == 0 {
		return r.Head.String() + "."
	}
	parts := make([]string, len(r.Body))
	for i, a := range r.Body {
		parts[i] = a.String()
	}
	return r.Head.String() + " :- " + strings.Join(parts, ", ") + "."
}

// Program is a list of rules.
type Program struct {
	Rules []Rule
}

// Add appends a rule.
func (p *Program) Add(head Atom, body ...Atom) {
	p.Rules = append(p.Rules, Rule{Head: head, Body: body})
}

// AddFact appends a ground fact.
func (p *Program) AddFact(pred string, consts ...string) {
	args := make([]Term, len(consts))
	for i, c := range consts {
		args[i] = C(c)
	}
	p.Add(NewAtom(pred, args...))
}

func (p *Program) String() string {
	var b strings.Builder
	for _, r := range p.Rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// IntensionalPreds returns the set of predicates occurring in some head.
func (p *Program) IntensionalPreds() map[string]bool {
	out := map[string]bool{}
	for _, r := range p.Rules {
		out[r.Head.Pred] = true
	}
	return out
}

// IsMonadic reports whether every intensional predicate is unary or 0-ary
// (the paper also relies on 0-ary goal predicates for decision problems).
func (p *Program) IsMonadic() bool {
	intens := p.IntensionalPreds()
	check := func(a Atom) bool {
		return !intens[a.Pred] || len(a.Args) <= 1
	}
	for _, r := range p.Rules {
		if !check(r.Head) {
			return false
		}
		for _, a := range r.Body {
			if !check(a) {
				return false
			}
		}
	}
	return true
}

// Validate checks arity consistency and safety: every head variable and
// every variable of a negated or builtin atom must occur in some positive
// non-builtin body atom.
func (p *Program) Validate() error {
	arity := map[string]int{}
	seen := func(a Atom, ri int) error {
		if got, ok := arity[a.Pred]; ok {
			if got != len(a.Args) {
				return fmt.Errorf("datalog: rule %d: predicate %s used with arity %d and %d", ri, a.Pred, got, len(a.Args))
			}
		} else {
			arity[a.Pred] = len(a.Args)
		}
		return nil
	}
	// Per rule: the variables of its positive non-builtin body atoms, and
	// which body atoms those are. Rules are short, so a list beats a map.
	var positive []string
	var relational []bool
	safe := func(t Term) bool { return !t.IsVar() || slices.Contains(positive, t.Var) }
	for ri, r := range p.Rules {
		if r.Head.Negated {
			return fmt.Errorf("datalog: rule %d: negated head", ri)
		}
		if err := seen(r.Head, ri); err != nil {
			return err
		}
		positive, relational = positive[:0], relational[:0]
		for _, a := range r.Body {
			if err := seen(a, ri); err != nil {
				return err
			}
			rel := !a.Negated && !IsBuiltin(a.Pred)
			relational = append(relational, rel)
			if !rel {
				continue
			}
			for _, t := range a.Args {
				if !safe(t) {
					positive = append(positive, t.Var)
				}
			}
		}
		for _, t := range r.Head.Args {
			if !safe(t) {
				return fmt.Errorf("datalog: rule %d: unsafe head variable %s", ri, t.Var)
			}
		}
		for i, a := range r.Body {
			if relational[i] {
				continue
			}
			for _, t := range a.Args {
				if !safe(t) {
					return fmt.Errorf("datalog: rule %d: unsafe variable %s in %s", ri, t.Var, a)
				}
			}
		}
	}
	return nil
}
