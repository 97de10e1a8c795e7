package schema

import "testing"

// FuzzParse checks the schema parser never panics and accepted inputs
// survive a print/reparse round trip.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"a b -> c\nc -> b",
		"attrs a b c\na -> b",
		"-> a",
		"a ->",
		"a -> b -> c",
		"a a -> b",
		"a b #-> c",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, err := Parse(src)
		if err != nil {
			return
		}
		s2, err := Parse(s.String())
		if err != nil {
			t.Fatalf("reparse failed: %v (printed %q)", err, s.String())
		}
		if s2.String() != s.String() {
			t.Fatalf("print/reparse not stable for %q", src)
		}
	})
}
