package tree_test

import (
	"context"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/decompose"
	"repro/internal/graph"
	"repro/internal/tree"
)

// niceFor builds a nice decomposition of g for scheduler tests.
func niceFor(t testing.TB, g *graph.Graph, opts tree.NiceOptions) *tree.Decomposition {
	t.Helper()
	d, err := decompose.Graph(g, decompose.MinFill)
	if err != nil {
		t.Fatal(err)
	}
	nice, err := tree.NormalizeNice(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return nice
}

// hashDP is a miniature DP at the scheduler level: every node's value is
// a hash of its bag and its dependency values (children bottom-up,
// parent top-down). It is order-sensitive in exactly the way a real
// evaluator is — any node computed before its dependencies, or twice,
// changes the result — so equal outputs across runs pin both the
// dependency order and the exactly-once contract. It reports failures
// with t.Error, so goroutines may call it.
func hashDP(t *testing.T, ctx context.Context, d *tree.Decomposition, down bool) []uint64 {
	t.Helper()
	bags, err := d.SortedBags()
	if err != nil {
		t.Error(err)
		return nil
	}
	vals := make([]uint64, d.Len())
	err = d.Schedule(ctx, down, func(v int) error {
		h := fnv.New64a()
		buf := []byte{byte(v), byte(v >> 8)}
		h.Write(buf)
		for _, e := range bags[v] {
			h.Write([]byte{byte(e), byte(e >> 8)})
		}
		mix := func(x uint64) {
			h.Write([]byte{byte(x), byte(x >> 8), byte(x >> 16), byte(x >> 24),
				byte(x >> 32), byte(x >> 40), byte(x >> 48), byte(x >> 56)})
		}
		if down {
			if p := d.Nodes[v].Parent; p >= 0 {
				mix(vals[p])
			}
		} else {
			for _, c := range d.Nodes[v].Children {
				mix(vals[c])
			}
		}
		if vals[v] != 0 {
			t.Errorf("node %d computed twice", v)
		}
		vals[v] = h.Sum64()
		return nil
	})
	if err != nil {
		t.Error(err)
	}
	return vals
}

// TestScheduleDependencyOrder asserts the ordering contract directly:
// bottom-up, every node runs strictly after all of its children;
// top-down, strictly after its parent.
func TestScheduleDependencyOrder(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	g := graph.PartialKTree(90, 3, 0.3, rng)
	nice := niceFor(t, g, tree.NiceOptions{BranchGuard: true})
	for _, down := range []bool{false, true} {
		done := make([]bool, nice.Len())
		err := nice.Schedule(context.Background(), down, func(v int) error {
			if down {
				if p := nice.Nodes[v].Parent; p >= 0 && !done[p] {
					t.Errorf("down: node %d ran before parent %d", v, p)
				}
			} else {
				for _, c := range nice.Nodes[v].Children {
					if !done[c] {
						t.Errorf("up: node %d ran before child %d", v, c)
					}
				}
			}
			if done[v] {
				t.Errorf("node %d scheduled twice (down=%v)", v, down)
			}
			done[v] = true
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for v := range done {
			if !done[v] {
				t.Fatalf("node %d never scheduled (down=%v)", v, down)
			}
		}
	}
}

// TestBagsSortedAndChecked pins the SortedBags contract: sorted bags
// for a nice decomposition, the CheckNice verdict for a raw one.
func TestBagsSortedAndChecked(t *testing.T) {
	g := graph.Cycle(6)
	nice := niceFor(t, g, tree.NiceOptions{})
	bags, err := nice.SortedBags()
	if err != nil {
		t.Fatal(err)
	}
	if len(bags) != nice.Len() {
		t.Fatalf("got %d bags for %d nodes", len(bags), nice.Len())
	}
	for v, bag := range bags {
		if !sort.IntsAreSorted(bag) {
			t.Fatalf("bag of node %d not sorted: %v", v, bag)
		}
		if len(bag) != len(nice.Nodes[v].Bag) {
			t.Fatalf("bag of node %d has %d elems, node has %d", v, len(bag), len(nice.Nodes[v].Bag))
		}
	}
	raw, err := decompose.Graph(g, decompose.MinFill)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.SortedBags(); err == nil {
		t.Fatal("raw decomposition accepted")
	}
	if err := raw.Schedule(context.Background(), false, func(int) error { return nil }); err == nil {
		t.Fatal("Schedule accepted a raw decomposition")
	}
}

// TestConcurrentScheduleSharedPlan starts several Schedule calls at once
// on one nice decomposition that has no plan yet, as concurrent solves
// on a session's nice form do: every first user must get the same plan,
// and every run the same values. Run under -race in CI.
func TestConcurrentScheduleSharedPlan(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	g := graph.PartialKTree(80, 3, 0.3, rng)
	nice := niceFor(t, g, tree.NiceOptions{BranchGuard: true})
	ctx := context.Background()
	want := hashDP(t, ctx, nice.Clone(), false) // the clone leaves nice unplanned

	const users = 8
	start := make(chan struct{})
	bags := make([][][]int, users)
	mismatch := make([]bool, users)
	var wg sync.WaitGroup
	for i := 0; i < users; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			bags[i], _ = nice.SortedBags()
			mismatch[i] = !reflect.DeepEqual(hashDP(t, ctx, nice, false), want)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < users; i++ {
		if mismatch[i] {
			t.Fatalf("goroutine %d: concurrent Schedule produced different values", i)
		}
		if len(bags[i]) == 0 || &bags[i][0] != &bags[0][0] {
			t.Fatalf("goroutine %d got a different plan than goroutine 0", i)
		}
	}
}
