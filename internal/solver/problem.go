package solver

// Out is one transition output: a produced state together with the cost
// delta of producing it. Decision and counting semirings ignore the
// cost; the optimization semiring accumulates it. Problems that are pure
// decision problems append Out{State: s} (zero cost) everywhere.
type Out[S comparable] struct {
	State S
	Cost  int
}

// Problem is the algebra a workload implements once to run in every
// mode. The transition hooks mirror the node kinds of the Section 5
// modified normal form; each receives the node ID and its sorted bag,
// appends the states the transition produces to dst and returns it
// (appending nothing kills the partial solution). The engine passes dst
// with length 0 and reuses its backing array for every child state of a
// node — one transition buffer per node — so a hook must not retain dst
// or the returned slice past the call. When the run's worker count
// (stage.Workers) is above 1 the hooks are invoked from multiple
// goroutines and must be safe for concurrent use.
type Problem[S comparable] interface {
	// Name identifies the problem for session memoization: an outcome is
	// cached per (structure fingerprint, Name, mode), so the name must
	// tell apart every parameter other than the structure that changes
	// the answer (a colouring's k, a weight vector).
	Name() string
	// Leaf appends the base states of a leaf node with their costs.
	Leaf(dst []Out[S], node int, bag []int) []Out[S]
	// Introduce appends the extensions of a child state by a newly
	// introduced element; the costs are deltas on top of the child's
	// accumulation.
	Introduce(dst []Out[S], node int, bag []int, elem int, child S) []Out[S]
	// Forget appends the projection of a child state after elem leaves
	// the bag.
	Forget(dst []Out[S], node int, bag []int, elem int, child S) []Out[S]
	// Join appends the combination of two children's states with
	// identical bags. The cost is added to the SUM of the children's
	// accumulated costs — use it to subtract contributions the two
	// subtrees both counted for the shared bag.
	Join(dst []Out[S], node int, bag []int, s1, s2 S) []Out[S]
	// Accept reports whether a root state represents a full solution.
	// The mode front-ends (Decide, Count, Minimum, Optimize) quantify
	// over accepting root states only.
	Accept(node int, bag []int, s S) bool
}
