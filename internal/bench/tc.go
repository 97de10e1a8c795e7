package bench

import (
	"strconv"

	"repro/internal/datalog"
)

// TCProgram is left-linear transitive closure, the standard stress test
// for semi-naive evaluation: over an n-vertex path it derives Θ(n²) facts
// in Θ(n) rounds, so it punishes any per-round index rebuild or per-tuple
// allocation in the engine hot path.
var TCProgram = datalog.MustParse(`
path(X, Y) :- e(X, Y).
path(X, Z) :- path(X, Y), e(Y, Z).
`)

// TCPathEDB builds the edge relation of a directed path on n vertices:
// e(v0, v1), …, e(v_{n-2}, v_{n-1}).
func TCPathEDB(n int) *datalog.DB {
	db := datalog.NewDB()
	for i := 0; i < n-1; i++ {
		db.AddFact("e", "v"+strconv.Itoa(i), "v"+strconv.Itoa(i+1))
	}
	return db
}
