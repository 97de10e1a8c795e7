package datalog

import (
	"context"
	"testing"
)

// setBuiltin installs f as the builtin name until t ends.
func setBuiltin(t testing.TB, name string, f BuiltinFunc) {
	builtins[name] = f
	t.Cleanup(func() { delete(builtins, name) })
}

// planBuilds evaluates p over edb and reports the semi-naive task plans
// the evaluation built.
func planBuilds(p *Program, edb *DB) (int, error) {
	planner, err := evalSemiNaive(context.Background(), p, edb)
	if err != nil {
		return 0, err
	}
	return planner.planBuilds, nil
}
