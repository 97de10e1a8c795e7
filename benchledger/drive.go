package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/structure"
)

// executor runs one op and returns its answer hash. cur is the client's
// current structure text, which an edit op advances.
type executor interface {
	do(ctx context.Context, ref opRef, o op, cur *string) (uint64, error)
}

// opRef names an op for tracing: its op id and its root span.
type opRef struct {
	op   int64
	span int64
}

func opID(c, i int) int64 { return int64(c)<<32 | int64(i) }

// record is one op's outcome. A failed op still has a latency.
type record struct {
	lat    time.Duration
	answer uint64
	failed bool
}

// recorder keeps one client's records in fixed-size chunks, so its heap
// footprint is known exactly, even mid-run, and can be left out of
// live_heap_mb.
type recorder struct {
	chunks   [][]record
	n        int
	size     atomic.Int64 // bytes of chunks allocated
	firstErr error
}

const chunkLen = 4096

func (r *recorder) add(x record) {
	if r.n%chunkLen == 0 {
		r.chunks = append(r.chunks, make([]record, chunkLen))
		r.size.Add(chunkLen * int64(unsafe.Sizeof(record{})))
	}
	r.chunks[r.n/chunkLen][r.n%chunkLen] = x
	r.n++
}

func (r *recorder) at(i int) record { return r.chunks[i/chunkLen][i%chunkLen] }

// pass is one closed-loop pass, run in one or more drives: the clients'
// op lists, where each client stands, and the outcome.
type pass struct {
	lists [clients][]op
	recs  [clients]*recorder
	cur   [clients]string // each client's current structure text
	// from holds, per client, the number of warm-up records: the
	// measured ones come after them.
	from    [clients]int
	warming bool
	wall    time.Duration // of the measured drives, less the probe pauses
	// liveHeap samples, in MiB, the live heap as of the last GC cycle,
	// less the recorders and the op lists, every heapEvery during the
	// measured drives.
	liveHeap  []float64
	listBytes int64 // heap held by the op lists
	// probes holds the probe slices of the measured drives, probeCPU the
	// CPU time they used.
	probes   []kernelTimes
	probeCPU time.Duration
}

const heapEvery = 100 * time.Millisecond

// warmUp is how long a pass on a long-lived server runs before it is
// measured. At the start of a run the first second or two are slower
// (edit-requery by half, hot-read by a sixth) while the heap and the
// server's caches settle; warming up leaves that out.
const warmUp = 2 * time.Second

func (p *pass) sampleHeap() {
	live := liveHeap() - p.listBytes
	for _, r := range p.recs {
		live -= r.size.Load()
	}
	p.liveHeap = append(p.liveHeap, float64(live)/(1<<20))
}

// liveHeap is the heap the last GC cycle found live, in bytes.
func liveHeap() int64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return int64(s[0].Value.Uint64())
}

// newPass builds every client's op list for a pass, without the
// oracle's truths, so that while the clients run the benchmark holds
// only the request bodies. The heap the lists take is measured across
// two forced collections.
func newPass(w *workload) *pass {
	p := &pass{}
	runtime.GC()
	before := liveHeap()
	for c := range p.lists {
		p.lists[c] = w.ops(c)
		for i := range p.lists[c] {
			p.lists[c][i].truth, p.lists[c][i].graph = nil, nil
		}
		p.recs[c] = &recorder{}
		p.cur[c] = w.initial(c)
	}
	runtime.GC()
	p.listBytes = liveHeap() - before
	return p
}

// records is the number of ops the pass ran, warm-up included: each is
// checked.
func (p *pass) records() int {
	n := 0
	for _, r := range p.recs {
		n += r.n
	}
	return n
}

// ops is the number of measured ops.
func (p *pass) ops() int {
	n := 0
	for c, r := range p.recs {
		n += r.n - p.from[c]
	}
	return n
}

func (p *pass) latencies() []float64 {
	var out []float64
	for c, r := range p.recs {
		for i := p.from[c]; i < r.n; i++ {
			out = append(out, ms(r.at(i).lat))
		}
	}
	sort.Float64s(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// warmUp drives the clients for d before the pass is measured. Its ops
// are checked but not measured: like set-up ops they carry op id -1, so
// no span of theirs counts, and the measured records start after them.
func (p *pass) warmUp(ctx context.Context, ex executor, d time.Duration) {
	p.warming = true
	p.drive(ctx, ex, d, 0, nil, false)
	p.warming = false
	for c, r := range p.recs {
		p.from[c] = r.n
	}
}

// drive runs the closed loop: clients goroutines, each sending the next
// op of its list, starting over at its end, only after the previous one
// answered. With limit > 0 each client sends limit ops; otherwise they
// run until dur has passed, not counting probe pauses. With a tracer it
// records each op's root span. A measured drive samples the live heap
// while the clients run, and times a probe slice before they start and
// every probeEvery after, with the clients stopped between ops. It
// returns its wall time less the probe pauses.
func (p *pass) drive(ctx context.Context, ex executor, dur time.Duration, limit int, t *tracer, measured bool) time.Duration {
	start := time.Now()
	var paused atomic.Int64 // nanoseconds the clients spent stopped for the probe
	elapsed := func() time.Duration { return time.Since(start) - time.Duration(paused.Load()) }
	more := func(k int) bool {
		if limit > 0 {
			return k < limit
		}
		return elapsed() < dur
	}
	// gate lets the clients send while they hold it shared; the probe
	// takes it exclusively, once the ops in flight have answered.
	var gate sync.RWMutex
	probe := func() {
		t0 := time.Now()
		gate.Lock()
		times, cpu := probeSlice()
		gate.Unlock()
		paused.Add(int64(time.Since(t0)))
		p.probes = append(p.probes, times)
		p.probeCPU += cpu
	}
	stop := make(chan struct{})
	var background sync.WaitGroup
	if measured {
		probe()
		background.Add(2)
		go func() {
			defer background.Done()
			tick := time.NewTicker(heapEvery)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					p.sampleHeap()
				}
			}
		}()
		go func() {
			defer background.Done()
			tick := time.NewTicker(probeEvery)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					probe()
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		rec := p.recs[c]
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ops := p.lists[c]
			for k := 0; more(k) && ctx.Err() == nil; k++ {
				i := rec.n
				o := ops[i%len(ops)]
				ref := opRef{op: opID(c, i)}
				if p.warming {
					ref.op = -1
				}
				if t != nil {
					ref.span = t.newID()
				}
				gate.RLock()
				t0 := time.Now()
				ans, err := ex.do(ctx, ref, o, &p.cur[c])
				t1 := time.Now()
				gate.RUnlock()
				if t != nil {
					t.add(span{Op: ref.op, ID: ref.span, Name: "op", Start: t.at(t0), End: t.at(t1)})
				}
				if err != nil && rec.firstErr == nil {
					rec.firstErr = fmt.Errorf("client %d op %d: %w", c, i, err)
				}
				rec.add(record{lat: t1.Sub(t0), answer: ans, failed: err != nil})
			}
		}(c)
	}
	wg.Wait()
	wall := elapsed()
	close(stop)
	background.Wait()
	if measured {
		p.sampleHeap()
	}
	return wall
}

// prime runs the set-up ops, split round-robin between the clients. Any
// failure fails the set-up.
func prime(ctx context.Context, w *workload, ex executor) error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(w.prime); i += clients {
				cur := ""
				if _, err := ex.do(ctx, opRef{op: -1}, w.prime[i], &cur); err != nil {
					errs[c] = fmt.Errorf("set-up op %d: %w", i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// service is an in-process monadicd on a loopback port, with
// server.Config{} defaults: what cmd/monadicd runs with no flags.
type service struct {
	url  string
	stop func() error
}

// startService starts the server through server.Run, as monadicd does,
// or, when wrap is set, behind a benchmark-owned http.Server whose
// handler wrap may instrument.
func startService(wrap func(http.Handler) http.Handler) (*service, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := server.New(server.Config{})
	done := make(chan error, 1)
	s := &service{url: "http://" + l.Addr().String()}
	if wrap == nil {
		ctx, cancel := context.WithCancel(context.Background())
		go func() { done <- server.Run(ctx, l, srv, 10*time.Second) }()
		s.stop = func() error {
			cancel()
			return <-done
		}
		return s, nil
	}
	hs := &http.Server{Handler: wrap(srv.Handler()), ReadHeaderTimeout: server.DefaultReadHeaderTimeout}
	go func() { done <- hs.Serve(l) }()
	s.stop = func() error {
		err := hs.Shutdown(context.Background())
		if serveErr := <-done; !errors.Is(serveErr, http.ErrServerClosed) {
			return serveErr
		}
		return err
	}
	return s, nil
}

// httpExec drives the server through the repository's typed client:
// one shared transport with one connection per client, no retries.
type httpExec struct {
	tr    *http.Transport
	plain *client.Client
	game  *client.Client
	calls atomic.Int64
}

func newHTTPExec(url string, wrap func(http.RoundTripper) http.RoundTripper) *httpExec {
	tr := &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}
	var rt http.RoundTripper = tr
	if wrap != nil {
		rt = wrap(tr)
	}
	mk := func(backend string) *client.Client {
		c := client.New(url)
		c.HTTP = &http.Client{Transport: rt}
		c.MaxAttempts = 1
		c.Backend = backend
		return c
	}
	return &httpExec{tr: tr, plain: mk(""), game: mk("game")}
}

type opKey struct{}

func (h *httpExec) do(ctx context.Context, ref opRef, o op, cur *string) (uint64, error) {
	ctx = context.WithValue(ctx, opKey{}, ref)
	c := h.plain
	if o.backend == "game" {
		c = h.game
	}
	h.calls.Add(1)
	switch o.kind {
	case opEval:
		r, err := c.Eval(ctx, o.eval)
		if err != nil {
			return 0, err
		}
		return hashEval(r), nil
	case opBatch:
		r, err := c.Batch(ctx, o.batch)
		if err != nil {
			return 0, err
		}
		return hashBatch(r), nil
	case opSolve:
		r, err := c.Solve(ctx, o.solve)
		if err != nil {
			return 0, err
		}
		return hashSolve(r), nil
	case opEdit:
		req := o.edit
		req.Structure = *cur
		m, err := c.Mutate(ctx, req)
		if err != nil {
			return 0, err
		}
		*cur = m.Structure
		h.calls.Add(1)
		r, err := c.Eval(ctx, server.EvalRequest{Structure: m.Structure, Formula: o.requery, Var: "x"})
		if err != nil {
			return 0, err
		}
		return hashEdit(m.Structure, r), nil
	}
	return 0, fmt.Errorf("unknown op kind %d", o.kind)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// check rebuilds every client's op list, with its truths, and replays
// it through the oracle, counting each record whose answer differs. It
// runs after the measured phase, one goroutine per client. An op that
// recurs when its list starts over is computed once, unless it is an
// edit, whose answer depends on the edits before it.
func check(ctx context.Context, w *workload, p *pass, or *oracle) (wrong int, firstErr error) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rec := p.recs[c]
			ops := w.ops(c)
			known := make([]bool, len(ops))
			answers := make([]uint64, len(ops))
			var mirror *structure.Structure
			if w.resident != nil {
				mirror = w.resident(c)
			}
			for i := 0; i < rec.n; i++ {
				k := i % len(ops)
				var err error
				if !known[k] {
					answers[k], err = or.expect(ctx, ops[k], mirror)
					known[k] = err == nil && ops[k].kind != opEdit
				}
				r := rec.at(i)
				if err == nil && (r.failed || r.answer == answers[k]) {
					continue
				}
				if err == nil {
					err = errors.New("answer differs from the oracle's")
				} else {
					err = fmt.Errorf("oracle: %w", err)
				}
				mu.Lock()
				if !r.failed {
					wrong++
				}
				if firstErr == nil {
					firstErr = fmt.Errorf("client %d op %d: %w", c, i, err)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return wrong, firstErr
}
