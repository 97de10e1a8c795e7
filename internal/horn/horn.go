// Package horn implements propositional definite Horn programs and their
// least models. Ground (propositional) datalog can be evaluated in linear
// time ([7, 27] in the paper: Dowling–Gallier / Minoux' LTUR); this is the
// back-end of the quasi-guarded evaluation of Theorem 4.4, where a
// quasi-guarded program is first grounded in time O(|P|·|A|) and the
// ground program is then solved here in time linear in its size.
package horn

// Clause is a definite Horn clause: Head ← Body[0] ∧ … ∧ Body[n-1].
// Variables are identified by dense non-negative integers. A clause with
// an empty body is a fact.
type Clause struct {
	Head int
	Body []int
}

// Program is a set of definite Horn clauses over variables 0..NumVars-1.
type Program struct {
	NumVars int
	Clauses []Clause
	// arena is the chunk AddClause carves clause bodies from, so a
	// program of many short clauses does not allocate one per clause.
	arena []int
}

// AddClause appends a clause, growing NumVars as needed. The body is
// copied.
func (p *Program) AddClause(head int, body ...int) {
	if head >= p.NumVars {
		p.NumVars = head + 1
	}
	for _, b := range body {
		if b >= p.NumVars {
			p.NumVars = b + 1
		}
	}
	var b []int
	if n := len(body); n > 0 {
		if len(p.arena) < n {
			p.arena = make([]int, 4096+n)
		}
		b = p.arena[:n:n]
		p.arena = p.arena[n:]
		copy(b, body)
	}
	if len(p.Clauses) == cap(p.Clauses) {
		// Double, where append grows a large slice by a quarter and so
		// copies it about four times over.
		p.Clauses = append(make([]Clause, 0, 2*cap(p.Clauses)+256), p.Clauses...)
	}
	p.Clauses = append(p.Clauses, Clause{Head: head, Body: b})
}

// Size returns the total number of literal occurrences, the |P'| of
// Theorem 4.4's complexity bound.
func (p *Program) Size() int {
	n := 0
	for _, c := range p.Clauses {
		n += 1 + len(c.Body)
	}
	return n
}

// Solve computes the least model by linear-time unit resolution (LTUR):
// each clause keeps a counter of unsatisfied body literals; when it drops
// to zero the head is derived and propagated through an occurrence list.
// Runs in time O(Size()).
func (p *Program) Solve() []bool {
	truth := make([]bool, p.NumVars)
	remaining := make([]int, len(p.Clauses))
	// Occurrence lists (variable → clauses with it in the body) share one
	// array: variable v's clauses are occ[start[v]:start[v+1]], in clause
	// order.
	start := make([]int, p.NumVars+2)
	for _, c := range p.Clauses {
		for _, b := range c.Body {
			start[b+2]++
		}
	}
	for i := 2; i < len(start); i++ {
		start[i] += start[i-1]
	}
	occ := make([]int, start[len(start)-1])
	var queue []int

	for ci, c := range p.Clauses {
		remaining[ci] = len(c.Body)
		for _, b := range c.Body {
			occ[start[b+1]] = ci
			start[b+1]++
		}
		if len(c.Body) == 0 && !truth[c.Head] {
			truth[c.Head] = true
			queue = append(queue, c.Head)
		}
	}
	// Account for body literals that may repeat: remaining counts
	// occurrences, which is safe because each occurrence is decremented
	// exactly once when its variable becomes true.
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, ci := range occ[start[v]:start[v+1]] {
			remaining[ci]--
			if remaining[ci] == 0 {
				h := p.Clauses[ci].Head
				if !truth[h] {
					truth[h] = true
					queue = append(queue, h)
				}
			}
		}
	}
	return truth
}

// SolveNaive computes the least model by iterating the immediate
// consequence operator to fixpoint. Quadratic; used to cross-check Solve
// in tests.
func (p *Program) SolveNaive() []bool {
	truth := make([]bool, p.NumVars)
	for changed := true; changed; {
		changed = false
		for _, c := range p.Clauses {
			if truth[c.Head] {
				continue
			}
			all := true
			for _, b := range c.Body {
				if !truth[b] {
					all = false
					break
				}
			}
			if all {
				truth[c.Head] = true
				changed = true
			}
		}
	}
	return truth
}
