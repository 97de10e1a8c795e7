package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// coloredTreeText returns the fact-list text of a random tree on n
// elements over {edge/2, c/1}, each element colored with probability ½.
func coloredTreeText(n int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.WriteString("dom")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, " v%d", i)
	}
	b.WriteString(".\n")
	for v := 1; v < n; v++ {
		fmt.Fprintf(&b, "edge(v%d, v%d).\n", rng.Intn(v), v)
	}
	for v := 0; v < n; v++ {
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&b, "c(v%d).\n", v)
		}
	}
	return b.String()
}

// TestWarmHandlerAllocGate gates the allocations of one warm /eval
// through Server.Handler: c(x) over a resident 44-element tree, answered
// from the session's result cache, so the request path (JSON, the
// text-to-fingerprint memo, admission, the session lookup, the reply) is
// all that allocates. The structure text is not parsed again. Allocation
// counts are deterministic, so the count is gated at 1.10x the 70
// measured (go1.24, linux/amd64); the bytes are logged.
func TestWarmHandlerAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are gated without -race")
	}
	const measured = 70
	h := New(Config{}).Handler()
	body, err := json.Marshal(EvalRequest{Structure: coloredTreeText(44, 44), Formula: "c(x)", Var: "x"})
	if err != nil {
		t.Fatal(err)
	}
	eval := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/eval", strings.NewReader(string(body))))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	eval() // the cold request: parse, decompose, compile, evaluate
	eval() // the first warm request hits the result cache
	allocs := testing.AllocsPerRun(100, eval)
	t.Logf("%.0f allocations per warm /eval (ceiling %.0f)", allocs, 1.10*measured)
	const runs = 100
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		eval()
	}
	runtime.ReadMemStats(&m1)
	t.Logf("%.0f B per warm /eval", float64(m1.TotalAlloc-m0.TotalAlloc)/runs)
	if allocs > 1.10*measured {
		t.Fatalf("%.0f allocations per warm /eval, ceiling %.0f", allocs, 1.10*measured)
	}
}
