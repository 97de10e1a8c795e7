package bench

import (
	"context"
	"os"
	"testing"

	"repro/internal/datalog"
	"repro/internal/stage"
)

// TestRACompareSmoke runs the full -ra comparison at a small size: all
// three legs must produce the accepted fixpoint, the grounding must die
// under the ground-atom cap while the direct path completes, and the
// engine counters must be live.
func TestRACompareSmoke(t *testing.T) {
	res, err := RACompare(context.Background(), 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.GroundLits == 0 || res.Facts == 0 {
		t.Fatalf("empty workload: %+v", res)
	}
	if !res.DirectUnderCap {
		t.Fatal("direct path did not complete under the ground-atom cap")
	}
	if res.GroundedBudget == "" {
		t.Fatal("grounded path survived the ground-atom cap")
	}
	if res.TuplesStreamed == 0 {
		t.Fatalf("engine counters dead: %+v", res)
	}
}

// TestRAAllocGate is the CI allocation-regression gate (set
// BENCH_ALLOC_GATE=1 to run; it is skipped otherwise so ordinary test
// runs — and -race runs, whose instrumentation skews allocation volume
// — stay unaffected). It pins the B/op of three legs at 1.10× the volume
// each had when the pins were set (go1.24, linux/amd64): the streaming
// engine on transitive closure (BenchmarkTCPath1000's shape) and on the
// τ_td chain (BenchmarkTDGrounding's shape), and the Theorem 4.4
// grounding on the same chain. The grounded pin was re-set when
// grounding began sharing rule prefixes and storing the ground program
// flat. The worker count is fixed on the context, since the parallel
// rounds' merge buffers scale the τ_td leg's volume with it.
func TestRAAllocGate(t *testing.T) {
	if os.Getenv("BENCH_ALLOC_GATE") == "" {
		t.Skip("set BENCH_ALLOC_GATE=1 to run the allocation gate")
	}
	ctx := stage.WithWorkers(context.Background(), 2)
	tcEDB := TCPathEDB(1000)
	prog, edb := TDChainProgram(RATypes), TDChain(2000)
	legs := []struct {
		name   string
		pinned int64 // B/op when the pin was set
		run    func() error
	}{
		{"streaming TC(1000)", 115_497_872, func() error {
			_, err := datalog.EvalCtx(ctx, TCProgram, tcEDB)
			return err
		}},
		{"streaming TDChain(2000)", 11_284_104, func() error {
			_, err := datalog.EvalCtx(ctx, prog, edb)
			return err
		}},
		{"grounded TDChain(2000)", 4_623_648, func() error {
			_, err := datalog.EvalQuasiGuarded(prog, edb.Clone(), datalog.TDFuncDeps(1))
			return err
		}},
	}
	for _, leg := range legs {
		// Warm once (index builds, arena growth), then measure.
		if err := leg.run(); err != nil {
			t.Fatal(err)
		}
		_, bytes, err := measureAlloc(leg.run)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d B (pinned %d B)", leg.name, bytes, leg.pinned)
		if float64(bytes) > 1.10*float64(leg.pinned) {
			t.Errorf("%s alloc regression: %d B > 1.10 × %d B", leg.name, bytes, leg.pinned)
		}
	}
}
