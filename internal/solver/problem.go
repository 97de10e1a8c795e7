package solver

// Out is one transition output: a produced state together with the cost
// delta of producing it. Decision and counting semirings ignore the
// cost; the optimization semiring accumulates it. Problems that are pure
// decision problems return Out{State: s} (zero cost) everywhere.
type Out[S comparable] struct {
	State S
	Cost  int
}

// Problem is the algebra a workload implements once to run in every
// mode. The hooks mirror the node kinds of the Section 5 modified
// normal form; each receives the node ID and its sorted bag, and
// returns the states the transition produces (empty kills the partial
// solution). When the run's worker count (stage.Workers) is above 1 the
// hooks are invoked from multiple goroutines and must be safe for
// concurrent use.
type Problem[S comparable] interface {
	// Name identifies the problem for session memoization: an outcome is
	// cached per (structure fingerprint, Name, mode), so the name must
	// tell apart every parameter other than the structure that changes
	// the answer (a colouring's k, a weight vector).
	Name() string
	// Leaf enumerates the base states of a leaf node with their costs.
	Leaf(node int, bag []int) []Out[S]
	// Introduce extends a child state with a newly introduced element;
	// the returned costs are deltas on top of the child's accumulation.
	Introduce(node int, bag []int, elem int, child S) []Out[S]
	// Forget projects a child state after elem leaves the bag.
	Forget(node int, bag []int, elem int, child S) []Out[S]
	// Join combines the states of two children with identical bags. The
	// returned cost is added to the SUM of the children's accumulated
	// costs — use it to subtract contributions the two subtrees both
	// counted for the shared bag.
	Join(node int, bag []int, s1, s2 S) []Out[S]
	// Accept reports whether a root state represents a full solution.
	// The mode front-ends (Decide, Count, Optimize) quantify over
	// accepting root states only.
	Accept(node int, bag []int, s S) bool
}

// Appender is an optional fast path: problems that implement it receive
// a scratch slice to append transition outputs to, and the evaluator
// reuses that slice across every child state of a node — one transition
// buffer per node instead of one allocation per (state, transition).
// Each method is the append-form twin of the Problem hook of the same
// base name: append outputs to dst (always passed with len 0) and
// return it. Implementations must not retain dst across calls; the
// engine recycles it immediately. Hot workloads implement both
// interfaces, with the Problem hooks delegating to the append forms.
type Appender[S comparable] interface {
	AppendLeaf(dst []Out[S], node int, bag []int) []Out[S]
	AppendIntroduce(dst []Out[S], node int, bag []int, elem int, child S) []Out[S]
	AppendForget(dst []Out[S], node int, bag []int, elem int, child S) []Out[S]
	AppendJoin(dst []Out[S], node int, bag []int, s1, s2 S) []Out[S]
}
