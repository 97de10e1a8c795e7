package mso

import "testing"

// FuzzParse checks that the formula parser never panics, that accepted
// formulas survive a print/reparse round trip, and that parsing one
// source twice renders alike (the variable "X sub Y" introduces is named
// after its operands, not numbered per parse).
func FuzzParse(f *testing.F) {
	seeds := []string{
		"exists x e(x, y)",
		"forall X (x in X -> e(x, x))",
		"~(a(x) & b(y)) | x = y",
		"X sub Y <-> Y psub X",
		"x != y -> x notin Z",
		"true & false",
		"exists",
		"((",
		"x in lower",
		"-> ->",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := Parse(src)
		if err != nil {
			return
		}
		printed := g.String()
		if again := MustParse(src).String(); again != printed {
			t.Fatalf("%q parsed twice renders as %q and %q", src, printed, again)
		}
		g2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse of %q failed: %v", printed, err)
		}
		if g2.String() != printed {
			t.Fatalf("print/reparse not stable for %q", printed)
		}
		// Depth and free variables must be computable without panics.
		_ = g.QuantifierDepth()
		_, _ = g.FreeVars()
	})
}
