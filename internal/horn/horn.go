// Package horn implements propositional definite Horn programs and their
// least models. Ground (propositional) datalog can be evaluated in linear
// time ([7, 27] in the paper: Dowling–Gallier / Minoux' LTUR); this is the
// back-end of the quasi-guarded evaluation of Theorem 4.4, where a
// quasi-guarded program is first grounded in time O(|P|·|A|) and the
// ground program is then solved here in time linear in its size.
package horn

// Program is a set of definite Horn clauses over variables
// 0..NumVars-1. A clause is Head ← Body[0] ∧ … ∧ Body[n-1]; one with an
// empty body is a fact. Clauses are stored flat, with no header per
// clause: clause i has head heads[i] and body body[ends[i-1]:ends[i]].
type Program struct {
	NumVars int
	heads   []int32
	ends    []int32
	body    []int32
}

// AddClause appends a clause, growing NumVars as needed. The body is
// copied.
func (p *Program) AddClause(head int, body ...int) {
	if head >= p.NumVars {
		p.NumVars = head + 1
	}
	p.heads = appendDoubling(p.heads, int32(head))
	for _, b := range body {
		if b >= p.NumVars {
			p.NumVars = b + 1
		}
		p.body = appendDoubling(p.body, int32(b))
	}
	p.ends = appendDoubling(p.ends, int32(len(p.body)))
}

// appendDoubling appends v, doubling s when it is full, where append
// grows a large slice by a quarter and so copies it about four times
// over.
func appendDoubling(s []int32, v int32) []int32 {
	if len(s) == cap(s) {
		s = append(make([]int32, 0, 2*cap(s)+256), s...)
	}
	return append(s, v)
}

// Len returns the number of clauses.
func (p *Program) Len() int { return len(p.heads) }

// Clause returns clause i's head and body. The body aliases the
// program's storage and must not be modified.
func (p *Program) Clause(i int) (head int, body []int32) {
	lo := int32(0)
	if i > 0 {
		lo = p.ends[i-1]
	}
	return int(p.heads[i]), p.body[lo:p.ends[i]:p.ends[i]]
}

// Size returns the total number of literal occurrences, the |P'| of
// Theorem 4.4's complexity bound.
func (p *Program) Size() int { return len(p.heads) + len(p.body) }

// Solve computes the least model by linear-time unit resolution (LTUR):
// each clause keeps a counter of unsatisfied body literals; when it drops
// to zero the head is derived and propagated through an occurrence list.
// Runs in time O(Size()).
func (p *Program) Solve() []bool {
	truth := make([]bool, p.NumVars)
	remaining := make([]int32, len(p.heads))
	// Occurrence lists (variable → clauses with it in the body) share one
	// array: variable v's clauses are occ[start[v]:start[v+1]], in clause
	// order.
	start := make([]int32, p.NumVars+2)
	for _, b := range p.body {
		start[b+2]++
	}
	for i := 2; i < len(start); i++ {
		start[i] += start[i-1]
	}
	occ := make([]int32, len(p.body))
	var queue []int32

	lo := int32(0)
	for ci, h := range p.heads {
		hi := p.ends[ci]
		remaining[ci] = hi - lo
		for _, b := range p.body[lo:hi] {
			occ[start[b+1]] = int32(ci)
			start[b+1]++
		}
		if hi == lo && !truth[h] {
			truth[h] = true
			queue = append(queue, h)
		}
		lo = hi
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
				h := p.heads[ci]
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
		for ci := 0; ci < p.Len(); ci++ {
			h, body := p.Clause(ci)
			if truth[h] {
				continue
			}
			all := true
			for _, b := range body {
				if !truth[b] {
					all = false
					break
				}
			}
			if all {
				truth[h] = true
				changed = true
			}
		}
	}
	return truth
}
