package monadic

// End-to-end tests of the command-line tools against the files in
// testdata/. Each tool is compiled once per test run via `go run`.

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func runTool(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	out, err := cmd.Output()
	if err != nil {
		extra := ""
		if ee, ok := err.(*exec.ExitError); ok {
			extra = string(ee.Stderr)
		}
		t.Fatalf("go run %v: %v\n%s", args, err, extra)
	}
	return string(out)
}

func TestCLIPrimality(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	out := runTool(t, "./cmd/primality", "-schema", "testdata/example.schema", "-all")
	if !strings.Contains(out, "prime attributes: a b c d") {
		t.Fatalf("output: %q", out)
	}
	out = runTool(t, "./cmd/primality", "-schema", "testdata/example.schema", "-attr", "e")
	if !strings.Contains(out, "prime(e) = false") {
		t.Fatalf("output: %q", out)
	}
	out = runTool(t, "./cmd/primality", "-schema", "testdata/example.schema", "-check3nf")
	if !strings.Contains(out, "3NF: false") {
		t.Fatalf("output: %q", out)
	}
	out = runTool(t, "./cmd/primality", "-schema", "testdata/example.schema", "-all", "-brute")
	if !strings.Contains(out, "prime attributes: a b c d") {
		t.Fatalf("output: %q", out)
	}
}

func TestCLIThreecolAndTreewidth(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	out := runTool(t, "./cmd/threecol", "-graph", "testdata/cycle5.graph", "-witness")
	if !strings.Contains(out, "3-colorable: true") {
		t.Fatalf("output: %q", out)
	}
	out = runTool(t, "./cmd/treewidth", "-graph", "testdata/cycle5.graph", "-exact")
	if !strings.Contains(out, "width: 2") {
		t.Fatalf("output: %q", out)
	}
	out = runTool(t, "./cmd/treewidth", "-schema", "testdata/example.schema", "-form", "nice")
	if !strings.Contains(out, "width: 2") {
		t.Fatalf("output: %q", out)
	}
}

func TestCLIMdlogAndMSO(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	out := runTool(t, "./cmd/mdlog", "-program", "testdata/tc.dl", "-edb", "testdata/tc_facts.dl")
	if !strings.Contains(out, "path(a,d).") {
		t.Fatalf("output: %q", out)
	}
	out = runTool(t, "./cmd/mdlog", "-program", "testdata/guarded.dl",
		"-edb", "testdata/guarded_facts.dl", "-mode", "guarded", "-width", "1", "-query", "accept")
	if !strings.Contains(out, "accept") {
		t.Fatalf("guarded output: %q", out)
	}
	out = runTool(t, "./cmd/msoeval", "-structure", "testdata/cycle5.graph",
		"-formula", "forall x exists y e(x, y)")
	if !strings.Contains(out, "holds: true") {
		t.Fatalf("output: %q", out)
	}
	out = runTool(t, "./cmd/mso2datalog", "-sig", "c/1", "-formula", "forall x c(x)",
		"-decision", "-width", "0")
	if !strings.Contains(out, "phi :- root(V)") {
		t.Fatalf("output: %q", out)
	}
}

func TestCLIBenchtable(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	out := runTool(t, "./cmd/benchtable", "-fds", "1", "-reps", "1", "-skipmona")
	if !strings.Contains(out, "#Att") || !strings.Contains(out, "3    3      1") {
		t.Fatalf("output: %q", out)
	}
}

// TestCLIBenchtableRAJSON pins -json's artifact envelope on the
// cheapest mode that writes one: BENCH_ra.json names its mode, and its
// results carry the chain size and a non-empty fixpoint.
func TestCLIBenchtableRAJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()
	out := runTool(t, "./cmd/benchtable", "-ra", "100", "-reps", "1", "-json", "-jsondir", dir)
	if !strings.Contains(out, "ra(n=100)") {
		t.Fatalf("output: %q", out)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_ra.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Name    string `json:"name"`
		Results struct {
			N     int `json:"n"`
			Facts int `json:"facts"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("BENCH_ra.json is not valid JSON: %v\n%s", err, raw)
	}
	if rep.Name != "ra" || rep.Results.N != 100 || rep.Results.Facts <= 0 {
		t.Fatalf("unexpected report: %+v", rep)
	}
}

// TestCLIBenchtableRetiredModes pins that benchtable rejects the flags
// of its retired modes as unknown, with the usage exit code 2: Go tests,
// Go benchmarks and benchledger measure what those modes did.
func TestCLIBenchtableRetiredModes(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	for _, flag := range []string{"-tc", "-pipeline", "-session", "-serve", "-serveReqs", "-mutate", "-mutateElems"} {
		code, _, stderr := runToolErr(t, nil, "./cmd/benchtable", flag, "10")
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined: "+flag) {
			t.Fatalf("benchtable %s 10: exit code %d, want 2\nstderr: %s", flag, code, stderr)
		}
	}
}

// runToolErr runs a tool expecting failure and returns its exit code,
// stdout and stderr. go run itself always exits 1 on a child failure
// and reports the child's real code in an "exit status N" stderr line,
// so the code is recovered from that line (and the line stripped).
func runToolErr(t *testing.T, env []string, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	cmd.Env = append(os.Environ(), env...)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if _, ok := err.(*exec.ExitError); ok {
		code = 1
	} else if err != nil {
		t.Fatalf("go run %v: %v", args, err)
	}
	var kept []string
	for _, line := range strings.Split(stderr.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "exit status "); ok {
			if n, err := strconv.Atoi(strings.TrimSpace(rest)); err == nil {
				code = n
			}
			continue
		}
		kept = append(kept, line)
	}
	return code, stdout.String(), strings.TrimRight(strings.Join(kept, "\n"), "\n")
}

// assertOneCleanLine checks a tool's error output is a single line with
// no trace of a panic stack.
func assertOneCleanLine(t *testing.T, stderr string) {
	t.Helper()
	if strings.Count(stderr, "\n") != 0 || stderr == "" {
		t.Fatalf("stderr is not one line: %q", stderr)
	}
	for _, needle := range []string{"goroutine", "runtime.", ".go:"} {
		if strings.Contains(stderr, needle) {
			t.Fatalf("stderr leaks a stack trace (%q): %q", needle, stderr)
		}
	}
}

// TestCLIMalformedInput pins the error contract for bad input: exit
// code 1 and a single stage-free message naming the source position.
func TestCLIMalformedInput(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	bad := filepath.Join(t.TempDir(), "bad.graph")
	if err := os.WriteFile(bad, []byte("e(a,b). e(a,\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runToolErr(t, nil, "./cmd/treewidth", "-graph", bad)
	if code != 1 {
		t.Fatalf("exit code %d, want 1\nstderr: %s", code, stderr)
	}
	assertOneCleanLine(t, stderr)
	if !strings.HasPrefix(stderr, "treewidth: ") || !strings.Contains(stderr, "line 1") {
		t.Fatalf("stderr: %q", stderr)
	}

	code, _, stderr = runToolErr(t, nil, "./cmd/mdlog",
		"-program", bad, "-edb", bad)
	if code != 1 {
		t.Fatalf("mdlog exit code %d, want 1\nstderr: %s", code, stderr)
	}
	assertOneCleanLine(t, stderr)
	if !strings.HasPrefix(stderr, "mdlog: ") {
		t.Fatalf("stderr: %q", stderr)
	}
}

// TestCLIMonadicdRetiredFlags pins that monadicd rejects its removed
// -engine and -eval flags as unknown, with the usage exit code 2. The
// unusable -addr makes a server that accepted them exit at once.
func TestCLIMonadicdRetiredFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	for _, args := range [][]string{{"-eval", "direct"}, {"-engine", "materialized"}} {
		code, _, stderr := runToolErr(t, nil, append([]string{"./cmd/monadicd", "-addr", "127.0.0.1:-1"}, args...)...)
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined: "+args[0]) {
			t.Fatalf("monadicd %v: exit code %d, want 2\nstderr: %s", args, code, stderr)
		}
	}
}

// TestCLIMso2datalogRetiredBackend pins that mso2datalog rejects its
// removed -backend flag as unknown, with the usage exit code 2: the
// automaton is the only backend with a compiled form to print.
func TestCLIMso2datalogRetiredBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	for _, name := range []string{"automaton", "game"} {
		code, _, stderr := runToolErr(t, nil, "./cmd/mso2datalog", "-sig", "c/1", "-formula", "c(x)", "-backend", name)
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined: -backend") {
			t.Fatalf("mso2datalog -backend %s: exit code %d, want 2\nstderr: %s", name, code, stderr)
		}
	}
}

// TestCLIBudgetExceeded pins exit code 3 and the stage-tagged one-line
// message when -budget is too small for the run.
func TestCLIBudgetExceeded(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	code, _, stderr := runToolErr(t, nil, "./cmd/mdlog",
		"-program", "testdata/guarded.dl", "-edb", "testdata/guarded_facts.dl",
		"-mode", "guarded", "-width", "1", "-budget", "2")
	if code != 3 {
		t.Fatalf("exit code %d, want 3\nstderr: %s", code, stderr)
	}
	assertOneCleanLine(t, stderr)
	if !strings.Contains(stderr, "budget") || !strings.Contains(stderr, "[eval]") {
		t.Fatalf("stderr: %q", stderr)
	}
}

// TestCLITimeoutExceeded pins exit code 4 for a deadline that cannot be
// met.
func TestCLITimeoutExceeded(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	code, _, stderr := runToolErr(t, nil, "./cmd/treewidth",
		"-graph", "testdata/cycle5.graph", "-timeout", "1ns")
	if code != 4 {
		t.Fatalf("exit code %d, want 4\nstderr: %s", code, stderr)
	}
	assertOneCleanLine(t, stderr)
	if !strings.Contains(stderr, "deadline") {
		t.Fatalf("stderr: %q", stderr)
	}
}

// TestCLIFaultInjection pins the FAULTINJECT env plumbing end to end:
// an injected fault at a stage boundary surfaces as a one-line
// stage-tagged error with exit code 1, and a fault in the min-fill
// heuristic degrades to the min-degree rung, visible in -trace output.
func TestCLIFaultInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	code, _, stderr := runToolErr(t, []string{"FAULTINJECT=session.build-td@1"},
		"./cmd/treewidth", "-graph", "testdata/cycle5.graph", "-form", "tuple")
	if code != 1 {
		t.Fatalf("exit code %d, want 1\nstderr: %s", code, stderr)
	}
	assertOneCleanLine(t, stderr)
	if !strings.Contains(stderr, "[build-td]") || !strings.Contains(stderr, "injected fault") {
		t.Fatalf("stderr: %q", stderr)
	}

	// Degradation ladder: kill min-fill, watch the trace report the
	// min-degree rung.
	cmd := exec.Command("go", "run", "./cmd/treewidth",
		"-graph", "testdata/cycle5.graph", "-trace")
	cmd.Env = append(os.Environ(), "FAULTINJECT=decompose.min-fill@1")
	var traceErr strings.Builder
	cmd.Stderr = &traceErr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("treewidth under min-fill fault: %v\n%s", err, traceErr.String())
	}
	if !strings.Contains(string(out), "width:") {
		t.Fatalf("stdout: %q", out)
	}
	if !strings.Contains(traceErr.String(), "[min-degree]") {
		t.Fatalf("trace does not show the fallback rung: %q", traceErr.String())
	}

	// A malformed FAULTINJECT spec is rejected up front.
	code, _, stderr = runToolErr(t, []string{"FAULTINJECT=seed=notanumber"},
		"./cmd/treewidth", "-graph", "testdata/cycle5.graph")
	if code != 1 {
		t.Fatalf("exit code %d, want 1\nstderr: %s", code, stderr)
	}
	assertOneCleanLine(t, stderr)
}

func TestCLITreewidthTraceAndTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	// -trace prints per-stage timings to stderr; stdout stays the same.
	cmd := exec.Command("go", "run", "./cmd/treewidth",
		"-graph", "testdata/cycle5.graph", "-trace")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("treewidth -trace: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(string(out), "width: 2") {
		t.Fatalf("stdout: %q", out)
	}
	if !strings.Contains(stderr.String(), "decompose") {
		t.Fatalf("trace missing from stderr: %q", stderr.String())
	}
	// A generous -timeout must not change behavior.
	out2 := runTool(t, "./cmd/treewidth", "-graph", "testdata/cycle5.graph", "-timeout", "1m")
	if !strings.Contains(out2, "width: 2") {
		t.Fatalf("output with -timeout: %q", out2)
	}
}
