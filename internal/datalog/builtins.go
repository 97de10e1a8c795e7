package datalog

import (
	"fmt"
	"strconv"
)

// BuiltinFunc evaluates a builtin predicate on ground arguments (constant
// names). Builtins are checked once all their variables are bound by
// positive relational atoms (enforced by Validate's safety rules).
//
// The paper highlights built-in predicates as one of datalog's advantages
// over the MSO-to-FTA route ("the possibility to define new built-in
// predicates if they admit an efficient implementation"); builtins is
// the table of them, fixed at build time.
type BuiltinFunc func(args []string) (bool, error)

var builtins = map[string]BuiltinFunc{
	"eq":  func(a []string) (bool, error) { return binary(a, func(x, y string) bool { return x == y }) },
	"neq": func(a []string) (bool, error) { return binary(a, func(x, y string) bool { return x != y }) },
	"lt":  func(a []string) (bool, error) { return binary(a, less) },
	"lte": func(a []string) (bool, error) { return binary(a, func(x, y string) bool { return !less(y, x) }) },
}

func binary(args []string, f func(x, y string) bool) (bool, error) {
	if len(args) != 2 {
		return false, fmt.Errorf("datalog: builtin expects 2 arguments, got %d", len(args))
	}
	return f(args[0], args[1]), nil
}

// less orders numerically when both arguments are integers, and
// lexicographically otherwise.
func less(x, y string) bool {
	xi, errX := strconv.Atoi(x)
	yi, errY := strconv.Atoi(y)
	if errX == nil && errY == nil {
		return xi < yi
	}
	return x < y
}

// IsBuiltin reports whether the predicate name is a builtin. Builtin
// names shadow extensional predicates; programs must not reuse them.
func IsBuiltin(name string) bool {
	_, ok := builtins[name]
	return ok
}

func callBuiltin(name string, args []string) (bool, error) {
	f, ok := builtins[name]
	if !ok {
		return false, fmt.Errorf("datalog: unknown builtin %s", name)
	}
	return f(args)
}
