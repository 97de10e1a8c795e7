// Fuzz properties of the nice normal form. Lives in an external test
// package so it can drive the decompose pipeline (decompose imports tree).
package tree_test

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/decompose"
	"repro/internal/graph"
	"repro/internal/tree"
)

// FuzzNormalizeNice checks, on random partial k-tree decompositions, that
// NormalizeNice always emits a decomposition that (a) passes CheckNice,
// (b) is still a valid tree decomposition of the source graph, (c) never
// increases the width, and (d) honors the LeafElems/CheckEnumerable
// contract when requested, and (e) without BranchGuard's copy nodes,
// sizes its node and carving arrays once.
func FuzzNormalizeNice(f *testing.F) {
	f.Add(int64(42), byte(18), byte(3), byte(77), byte(0))
	f.Add(int64(1), byte(5), byte(1), byte(0), byte(1))
	f.Add(int64(-7), byte(33), byte(2), byte(200), byte(2))
	f.Add(int64(99), byte(60), byte(4), byte(128), byte(3))
	f.Fuzz(func(t *testing.T, seed int64, n, k, drop, opts byte) {
		rng := rand.New(rand.NewSource(seed))
		nv := 2 + int(n)%60
		kk := 1 + int(k)%4
		g := graph.PartialKTree(nv, kk, float64(drop)/255.0, rng)
		d, err := decompose.Graph(g, decompose.MinFill)
		if err != nil {
			t.Fatalf("decompose: %v", err)
		}
		if err := d.ValidateGraph(g); err != nil {
			t.Fatalf("raw decomposition invalid: %v", err)
		}
		no := tree.NiceOptions{BranchGuard: opts&1 != 0}
		var attrElems *bitset.Set
		if opts&2 != 0 {
			attrElems = bitset.New(nv)
			for i := 0; i < nv; i++ {
				attrElems.Add(i)
			}
			no.LeafElems = attrElems
		}
		nice, err := tree.NormalizeNice(d, no)
		if err != nil {
			t.Fatalf("NormalizeNice: %v", err)
		}
		if err := tree.CheckNice(nice); err != nil {
			t.Fatalf("CheckNice after normalization: %v", err)
		}
		if err := nice.ValidateGraph(g); err != nil {
			t.Fatalf("normalized decomposition invalid: %v", err)
		}
		if nice.Width() > d.Width() {
			t.Fatalf("normalization increased width: %d > %d", nice.Width(), d.Width())
		}
		if !no.BranchGuard && (len(nice.Nodes) != cap(nice.Nodes) || tree.CarveSpare(nice) != 0) {
			t.Fatalf("nice form not sized once: %d nodes in %d, %d carved ints spare",
				len(nice.Nodes), cap(nice.Nodes), tree.CarveSpare(nice))
		}
		if attrElems != nil {
			if no.BranchGuard {
				// The full enumeration form needs branch guards too.
				if err := tree.CheckEnumerable(nice, attrElems); err != nil {
					t.Fatalf("CheckEnumerable: %v", err)
				}
			} else {
				inLeaf := bitset.New(nv)
				for _, l := range nice.Leaves() {
					for _, e := range nice.Nodes[l].Bag {
						inLeaf.Add(e)
					}
				}
				if !attrElems.SubsetOf(inLeaf) {
					t.Fatal("LeafElems not all covered by leaf bags")
				}
			}
		}
	})
}
