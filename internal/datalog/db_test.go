package datalog

import (
	"reflect"
	"testing"

	"repro/internal/datalog/ra"
)

// probeMatches returns the candidates of r.probe(pattern) that agree
// with the pattern, the re-check every probe caller makes.
func probeMatches(r *relation, pattern []int) [][]int {
	var c ra.Candidates
	r.probe(pattern, &c)
	var out [][]int
	for i := 0; i < c.Len(); i++ {
		t := c.At(i)
		ok := true
		for p, v := range pattern {
			if v >= 0 && t[p] != v {
				ok = false
			}
		}
		if ok {
			out = append(out, t)
		}
	}
	return out
}

// TestProbeResultNoAliasing is the regression test for the seed bug where
// a fully bound lookup answered with the caller's own pattern slice, so
// a caller reusing its pattern buffer rewrote the result. Candidates
// reference the relation's storage, never the pattern, on every path:
// exact lookup, index bucket, and full scan.
func TestProbeResultNoAliasing(t *testing.T) {
	db := NewDB()
	db.AddFact("e", "a", "b")
	db.AddFact("e", "b", "c")
	db.AddFact("e", "a", "c")
	r := db.rels["e"]
	a, b := db.Intern("a"), db.Intern("b")

	for _, pattern := range [][]int{{a, b}, {a, -1}, {-1, -1}} {
		var c ra.Candidates
		r.probe(pattern, &c)
		if c.Len() == 0 {
			t.Fatalf("probe %v found no candidates", pattern)
		}
		var got [][]int
		for i := 0; i < c.Len(); i++ {
			got = append(got, append([]int(nil), c.At(i)...))
		}
		pattern[0], pattern[1] = -7, -7 // caller reuses its pattern buffer
		for i := 0; i < c.Len(); i++ {
			if !reflect.DeepEqual(c.At(i), got[i]) {
				t.Fatalf("candidate %d changed when the caller's pattern was reused: %v, was %v", i, c.At(i), got[i])
			}
		}
	}
	if db.Count("e") != 3 || !db.Has("e", "a", "b") || !db.Has("e", "b", "c") || !db.Has("e", "a", "c") {
		t.Fatal("probing corrupted the relation")
	}
}

// TestInsertKeepsLiveIndexes pins the tentpole guarantee: once a
// bound-position index exists, further inserts update it in place rather
// than discarding it, so the build counter stays flat while the index
// keeps answering correctly. (The seed rebuilt from scratch after every
// insert, giving Ω(rounds·|A|) behavior in semi-naive loops.)
func TestInsertKeepsLiveIndexes(t *testing.T) {
	db := NewDB()
	ids := make([]int, 100)
	for i := range ids {
		ids[i] = db.Intern(string(rune('A' + i%26)))
	}
	db.AddTuple("e", []int{ids[0], ids[1]})
	r := db.rels["e"]

	if got := probeMatches(r, []int{ids[0], -1}); len(got) != 1 {
		t.Fatalf("initial probe: %d tuples, want 1", len(got))
	}
	if got := db.IndexBuilds("e"); got != 1 {
		t.Fatalf("IndexBuilds = %d after first indexed probe, want 1", got)
	}

	for i := 1; i < 60; i++ {
		db.AddTuple("e", []int{ids[0], db.Intern("fresh" + string(rune('0'+i%10)) + string(rune('a'+i%26)))})
		want := i + 1
		if got := len(probeMatches(r, []int{ids[0], -1})); got != want {
			t.Fatalf("after %d inserts: probe matched %d tuples, want %d", i, got, want)
		}
	}
	if got := db.IndexBuilds("e"); got != 1 {
		t.Fatalf("IndexBuilds = %d after 59 inserts, want 1 (insert must maintain live indexes in place)", got)
	}
}

// TestCloneIndependent checks that Clone (now a flat copy with no
// per-tuple re-hashing) still yields a fully independent database with
// working deduplication.
func TestCloneIndependent(t *testing.T) {
	db := NewDB()
	db.AddFact("e", "a", "b")
	db.AddFact("n", "a")

	c := db.Clone()
	if !reflect.DeepEqual(c.Tuples("e"), db.Tuples("e")) || c.Count("n") != 1 {
		t.Fatal("clone lost facts")
	}
	if c.AddFact("e", "a", "b") {
		t.Fatal("clone dedup table broken: duplicate insert reported as new")
	}
	if !c.AddFact("e", "b", "c") || c.Count("e") != 2 {
		t.Fatal("clone rejects genuinely new facts")
	}
	if db.Count("e") != 1 || db.Has("e", "b", "c") {
		t.Fatal("mutating the clone changed the original")
	}
	if !db.AddFact("e", "x", "y") || c.Has("e", "x", "y") {
		t.Fatal("mutating the original changed the clone")
	}
	// Interning stays independent too.
	c.Intern("cloneonly")
	if _, ok := db.byName["cloneonly"]; ok {
		t.Fatal("clone shares the interning table with the original")
	}
}
