package solver

import "testing"

func TestPosition(t *testing.T) {
	tests := []struct {
		bag        []int
		elem       int
		want, rank int
	}{
		{nil, 0, -1, 0},
		{[]int{}, 3, -1, 0},
		{[]int{5}, 5, 0, 0},
		{[]int{5}, 4, -1, 0},
		{[]int{5}, 6, -1, 1},
		{[]int{1, 3, 7}, 1, 0, 0},
		{[]int{1, 3, 7}, 3, 1, 1},
		{[]int{1, 3, 7}, 7, 2, 2},
		{[]int{1, 3, 7}, 0, -1, 0},
		{[]int{1, 3, 7}, 2, -1, 1},
		{[]int{1, 3, 7}, 9, -1, 3},
	}
	for _, tc := range tests {
		if got := Position(tc.bag, tc.elem); got != tc.want {
			t.Errorf("Position(%v, %d) = %d, want %d", tc.bag, tc.elem, got, tc.want)
		}
		if got := Contains(tc.bag, tc.elem); got != (tc.want >= 0) {
			t.Errorf("Contains(%v, %d) = %v, want %v", tc.bag, tc.elem, got, tc.want >= 0)
		}
		if got := Rank(tc.bag, tc.elem); got != tc.rank {
			t.Errorf("Rank(%v, %d) = %d, want %d", tc.bag, tc.elem, got, tc.rank)
		}
		// A forget node's element sits at its rank in the child's bag.
		if tc.want < 0 {
			if got := Position(insertSorted(tc.bag, tc.elem), tc.elem); got != tc.rank {
				t.Errorf("Position of %d in %v with it inserted = %d, Rank = %d", tc.elem, tc.bag, got, tc.rank)
			}
		}
	}
}

func TestWidthPacking(t *testing.T) {
	tests := []struct{ w Width }{{1}, {2}, {4}, {8}}
	for _, tc := range tests {
		w := tc.w
		if got, want := w.Max(), 64/int(w); got != want {
			t.Errorf("Width(%d).Max() = %d, want %d", w, got, want)
		}
		// Fill every position with a distinct value and read them back.
		var s uint64
		for p := 0; p < w.Max(); p++ {
			s = w.Set(s, p, uint64(p)%(1<<w))
		}
		for p := 0; p < w.Max(); p++ {
			if got := w.At(s, p); got != uint64(p)%(1<<w) {
				t.Fatalf("Width(%d): At(%d) = %d after Set, want %d", w, p, got, uint64(p)%(1<<w))
			}
		}
		// Set overwrites without disturbing neighbors.
		s2 := w.Set(s, 1, 0)
		for p := 0; p < w.Max(); p++ {
			want := uint64(p) % (1 << w)
			if p == 1 {
				want = 0
			}
			if got := w.At(s2, p); got != want {
				t.Fatalf("Width(%d): At(%d) = %d after overwrite, want %d", w, p, got, want)
			}
		}
	}
}

// TestWidthInsertDropMirrorsSortedBags pins the defining property:
// Insert/Drop keep packed statuses aligned with their bag elements
// under the corresponding sorted-bag insertion and removal.
func TestWidthInsertDropMirrorsSortedBags(t *testing.T) {
	const w = Width(2)
	bag := []int{2, 5, 9}
	status := map[int]uint64{2: 1, 5: 3, 9: 2}
	var s uint64
	for p, e := range bag {
		s = w.Set(s, p, status[e])
	}
	for _, elem := range []int{0, 4, 7, 11} { // before, between, between, after
		grown := insertSorted(bag, elem)
		p := Position(grown, elem)
		s2 := w.Insert(s, p, 0)
		for q, e := range grown {
			want := status[e] // 0 for the new elem
			if got := w.At(s2, q); got != want {
				t.Fatalf("insert %d: position %d (elem %d) = %d, want %d", elem, q, e, got, want)
			}
		}
		// Dropping it again restores the original packed state.
		if back := w.Drop(s2, p); back != s {
			t.Fatalf("insert %d then drop: %b, want %b", elem, back, s)
		}
	}
}

func TestWidthInsertAtBoundary(t *testing.T) {
	const w = Width(2)
	// Inserting at the last representable position must not clobber the
	// low positions (the shifted-out high bits are beyond capacity).
	var s uint64
	for p := 0; p < w.Max(); p++ {
		s = w.Set(s, p, 3)
	}
	s2 := w.Insert(s, 0, 1)
	if got := w.At(s2, 0); got != 1 {
		t.Fatalf("At(0) = %d after boundary insert, want 1", got)
	}
	for p := 1; p < w.Max(); p++ {
		if got := w.At(s2, p); got != 3 {
			t.Fatalf("At(%d) = %d after boundary insert, want 3", p, got)
		}
	}
}

// insertSorted returns a new sorted slice with v inserted: the
// reference model of a forget node's child bag.
func insertSorted(xs []int, v int) []int {
	out := make([]int, 0, len(xs)+1)
	i := 0
	for ; i < len(xs) && xs[i] < v; i++ {
		out = append(out, xs[i])
	}
	out = append(out, v)
	return append(out, xs[i:]...)
}
