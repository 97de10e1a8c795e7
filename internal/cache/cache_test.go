package cache

// Contract tests, one case per clause of the package contract. CI runs
// them under -race -count=2.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// signalCtx sends on waiting the first time a caller selects on its
// Done channel. In Do that is the moment the caller starts waiting on
// another caller's computation.
type signalCtx struct {
	context.Context
	once    sync.Once
	waiting chan<- struct{}
}

func (c *signalCtx) Done() <-chan struct{} {
	c.once.Do(func() { c.waiting <- struct{}{} })
	return c.Context.Done()
}

// checkOrder fails unless the FIFO order slice and the map agree.
func checkOrder[K comparable, V any](t *testing.T, c *Cache[K, V]) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.order) != len(c.m) {
		t.Fatalf("order length %d != map length %d (leak)", len(c.order), len(c.m))
	}
	for _, k := range c.order {
		if _, ok := c.m[k]; !ok {
			t.Fatalf("order holds %v, which the map lacks", k)
		}
	}
}

// hold starts a computation of k that blocks until release is closed and
// then returns (v, err). It returns once the computation is running.
func hold(c *Cache[string, int], k string, v int, err error) (release chan struct{}, done <-chan error) {
	started, release := make(chan struct{}), make(chan struct{})
	out := make(chan error, 1)
	go func() {
		_, _, e := c.Do(context.Background(), k, func() (int, error) {
			close(started)
			<-release
			return v, err
		})
		out <- e
	}()
	<-started
	return release, out
}

func TestFloodKeepsCap(t *testing.T) {
	c := New[int, int](64)
	for i := 0; i < 10000; i++ {
		c.Add(i, i)
	}
	if n := c.Len(); n != 64 {
		t.Fatalf("Len = %d after 10k inserts, want the cap 64", n)
	}
	checkOrder(t, c)
	vals := c.Values()
	if vals[0] != 10000-64 || vals[63] != 9999 {
		t.Fatalf("survivors run %d..%d, want the newest, %d..9999", vals[0], vals[63], 10000-64)
	}
}

func TestDuplicateInsertKeepsFirst(t *testing.T) {
	c := New[string, int](4)
	c.Add("k", 1)
	c.Add("k", 2)
	if got := c.GetOrAdd("k", func() int { return 3 }); got != 1 {
		t.Fatalf("GetOrAdd = %d, want the first insert's 1", got)
	}
	v, hit, err := c.Do(context.Background(), "k", func() (int, error) { return 4, nil })
	if err != nil || v != 1 || !hit {
		t.Fatalf("Do = %d, %v, %v; want the first insert's 1 as a hit", v, hit, err)
	}
	if n := c.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
	checkOrder(t, c)
}

func TestConcurrentCallersComputeOnce(t *testing.T) {
	c := New[string, int](4)
	const n = 16
	var computed atomic.Int32
	waiting := make(chan struct{}, n)
	release := make(chan struct{})
	var wg sync.WaitGroup
	vals := make([]int, n)
	hits := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := &signalCtx{Context: context.Background(), waiting: waiting}
			var err error
			vals[i], hits[i], err = c.Do(ctx, "k", func() (int, error) {
				computed.Add(1)
				<-release
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	// Every caller but the leader waits on its computation.
	for i := 0; i < n-1; i++ {
		<-waiting
	}
	close(release)
	wg.Wait()
	if got := computed.Load(); got != 1 {
		t.Fatalf("computed %d times, want 1", got)
	}
	leaders := 0
	for i := range vals {
		if vals[i] != 42 {
			t.Fatalf("caller %d got %d, want 42", i, vals[i])
		}
		if !hits[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d callers report computing, want 1", leaders)
	}
}

func TestFailedLeaderWaitersRetry(t *testing.T) {
	c := New[string, int](4)
	boom := errors.New("boom")
	release, leaderErr := hold(c, "k", 0, boom)
	waiting := make(chan struct{}, 1)
	type outcome struct {
		v   int
		hit bool
		err error
	}
	got := make(chan outcome, 1)
	go func() {
		ctx := &signalCtx{Context: context.Background(), waiting: waiting}
		v, hit, err := c.Do(ctx, "k", func() (int, error) { return 7, nil })
		got <- outcome{v, hit, err}
	}()
	<-waiting
	close(release)
	if err := <-leaderErr; !errors.Is(err, boom) {
		t.Fatalf("leader err = %v, want its own failure", err)
	}
	if o := <-got; o.err != nil || o.v != 7 || o.hit {
		t.Fatalf("waiter got %+v, want its own computation's 7", o)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("stats %+v, want one miss (the failure is not one) and no hits", st)
	}
}

func TestCancelledWaiterReturnsLeaderContinues(t *testing.T) {
	c := New[string, int](4)
	release, leaderErr := hold(c, "k", 5, nil)
	ctx, cancel := context.WithCancel(context.Background())
	waiting := make(chan struct{}, 1)
	got := make(chan error, 1)
	go func() {
		_, _, err := c.Do(&signalCtx{Context: ctx, waiting: waiting}, "k", func() (int, error) {
			t.Error("a cancelled waiter computed")
			return 0, nil
		})
		got <- err
	}()
	<-waiting
	cancel()
	// The waiter returns while the leader is still held.
	if err := <-got; err != context.Canceled {
		t.Fatalf("waiter err = %v, want context.Canceled unwrapped", err)
	}
	close(release)
	if err := <-leaderErr; err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Peek("k"); !ok || v != 5 {
		t.Fatalf("leader's value = %d, %v; want 5 stored", v, ok)
	}
}

func TestPanickingComputationReleasesWaiters(t *testing.T) {
	c := New[string, int](4)
	started, release := make(chan struct{}), make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.Do(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	waiting := make(chan struct{}, 1)
	got := make(chan int, 1)
	go func() {
		v, _, err := c.Do(&signalCtx{Context: context.Background(), waiting: waiting}, "k", func() (int, error) { return 9, nil })
		if err != nil {
			t.Error(err)
		}
		got <- v
	}()
	<-waiting
	close(release)
	if r := <-panicked; r != "boom" {
		t.Fatalf("leader recovered %v, want the panic to reach it", r)
	}
	if v := <-got; v != 9 {
		t.Fatalf("waiter got %d, want its own computation's 9", v)
	}
	c.mu.Lock()
	n := len(c.flights)
	c.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d flights left registered after a panic", n)
	}
}

func TestClearLeavesFlightsAlone(t *testing.T) {
	c := New[string, int](4)
	c.Add("a", 1)
	c.Add("b", 2)
	release, leaderErr := hold(c, "k", 3, nil)
	waiting := make(chan struct{}, 1)
	got := make(chan int, 1)
	go func() {
		v, _, err := c.Do(&signalCtx{Context: context.Background(), waiting: waiting}, "k", func() (int, error) {
			t.Error("waiter computed after a Clear")
			return 0, nil
		})
		if err != nil {
			t.Error(err)
		}
		got <- v
	}()
	<-waiting
	if n := c.Clear(); n != 2 {
		t.Fatalf("Clear dropped %d entries, want 2", n)
	}
	close(release)
	if err := <-leaderErr; err != nil {
		t.Fatal(err)
	}
	if v := <-got; v != 3 {
		t.Fatalf("waiter got %d, want the flight's 3", v)
	}
	if v, ok := c.Peek("k"); !ok || v != 3 || c.Len() != 1 {
		t.Fatalf("after the flight: k = %d, %v, Len %d; want only k = 3", v, ok, c.Len())
	}
	checkOrder(t, c)
}

func TestEvictOldestHalf(t *testing.T) {
	c := New[int, int](16)
	for i := 0; i < 10; i++ {
		c.Add(i, i)
	}
	if n := c.EvictOldestHalf(); n != 5 {
		t.Fatalf("evicted %d, want 5", n)
	}
	if vals := c.Values(); len(vals) != 5 || vals[0] != 5 {
		t.Fatalf("survivors %v, want 5..9", vals)
	}
	checkOrder(t, c)
	for c.Len() > 1 {
		c.EvictOldestHalf()
	}
	if n := c.EvictOldestHalf(); n != 1 {
		t.Fatalf("evicted %d of one entry, want it evicted", n)
	}
	if n := c.EvictOldestHalf(); n != 0 {
		t.Fatalf("evicted %d from an empty cache", n)
	}
	if ev := c.Stats().Evictions; ev != 10 {
		t.Fatalf("Evictions = %d, want 10", ev)
	}
}

func TestCounts(t *testing.T) {
	c := New[string, int](2)
	ctx := context.Background()
	c.GetOrAdd("a", func() int { return 1 })                           // miss
	c.GetOrAdd("a", func() int { return 2 })                           // hit
	c.Do(ctx, "b", func() (int, error) { return 2, nil })              // miss
	c.Do(ctx, "b", func() (int, error) { return 0, nil })              // hit
	c.Do(ctx, "x", func() (int, error) { return 0, errors.New("no") }) // neither
	c.Peek("a")                                                        // neither
	if st := c.Stats(); st != (Stats{Hits: 2, Misses: 2}) {
		t.Fatalf("stats %+v, want 2 hits, 2 misses, 0 evictions", st)
	}
	c.Add("c", 3) // evicts a
	if _, ok := c.Peek("a"); ok {
		t.Fatal("the oldest entry survived an insert beyond the cap")
	}
	if c.Delete("b", func(v int) bool { return v != 2 }) {
		t.Fatal("Delete removed an entry its match rejected")
	}
	if !c.Delete("b", func(v int) bool { return v == 2 }) {
		t.Fatal("Delete kept an entry its match accepted")
	}
	checkOrder(t, c)
	c.Clear()
	if st := c.Stats(); st != (Stats{Hits: 2, Misses: 2, Evictions: 1}) {
		t.Fatalf("stats %+v, want the cap eviction alone counted, Delete and Clear not", st)
	}
}
