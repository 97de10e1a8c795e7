package datalog

import "testing"

func TestBuiltinBasics(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want bool
	}{
		{"eq", []string{"a", "a"}, true},
		{"neq", []string{"a", "b"}, true},
		{"lt", []string{"2", "10"}, true}, // numeric when both parse
		{"lt", []string{"b", "a"}, false}, // lexicographic otherwise
		{"lte", []string{"3", "3"}, true},
	} {
		got, err := callBuiltin(tc.name, tc.args)
		if err != nil || got != tc.want {
			t.Fatalf("%s(%v) = %v, %v; want %v", tc.name, tc.args, got, err, tc.want)
		}
	}
	if _, err := callBuiltin("nosuch", nil); err == nil {
		t.Fatal("unknown builtin did not error")
	}
	if _, err := callBuiltin("eq", []string{"a"}); err == nil {
		t.Fatal("arity error not reported")
	}
}
