package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// parent code re-executes os.Executable() as a child. Tests run from the
// repository root, as the benchmark does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == childFlag {
		os.Exit(runChild(os.Args[2:], os.Stderr))
	}
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runBench runs the parent with args at tiny size and returns its exit
// code and parsed result line.
func runBench(t *testing.T, work string, args ...string) (int, resultLine) {
	t.Helper()
	args = append([]string{"-size", sizeTiny, "-work", work,
		"-history", filepath.Join(work, "history.jsonl")}, args...)
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("bench %v: exit %d, no result line: %v\nstdout:\n%s\nstderr:\n%s", args, code, err, &stdout, &stderr)
	}
	if code != 0 && res.Correct {
		t.Fatalf("bench %v: exit %d with a correct result\n%s", args, code, &stdout)
	}
	return code, res
}

// checkMetrics asserts the result carries exactly the metrics the spec
// names, each with the spec's unit.
func checkMetrics(t *testing.T, w string, res resultLine, want []metricSpec) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json names %d", w, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("%s: metric %s = %+v, want unit %q", w, m.Name, got, m.Unit)
		}
	}
}

// TestWorkloadsTiny runs every workload untraced and traced at tiny size:
// every metric BENCHMARK.json names is emitted with its unit, every span
// has a valid parent and a non-negative self time, and the workload-
// independent substrate counter repeats exactly across workloads.
func TestWorkloadsTiny(t *testing.T) {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	accesses := map[float64]bool{}
	for _, w := range workloads {
		code, res := runBench(t, work, "-workload", w.name)
		if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("%s untraced: exit %d, %+v", w.name, code, res)
		}
		checkMetrics(t, w.name, res, spec.EndToEnd)

		code, res = runBench(t, work, "-workload", w.name, "-trace", "1")
		if code != 0 || !res.Correct {
			t.Fatalf("%s traced: exit %d, %+v", w.name, code, res)
		}
		checkMetrics(t, w.name, res, spec.PerLayer)
		accesses[res.Metrics["offline.cpu_accesses_demo"].Value] = true

		var trace struct {
			Spans  []Span             `json:"spans"`
			Layers map[string]float64 `json:"layers"`
		}
		b, err := os.ReadFile(filepath.Join(work, "spans", w.name+"-tiny-seed1.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &trace); err != nil {
			t.Fatal(err)
		}
		ids := map[string]bool{}
		for _, s := range trace.Spans {
			if ids[s.ID] {
				t.Errorf("%s: duplicate span %s", w.name, s.ID)
			}
			ids[s.ID] = true
		}
		names := map[string]bool{}
		for _, s := range trace.Spans {
			names[s.Name] = true
			if s.Parent != "" && !ids[s.Parent] {
				t.Errorf("%s: span %s has unknown parent %s", w.name, s.ID, s.Parent)
			}
			if s.Self < 0 || s.End < s.Start {
				t.Errorf("%s: span %s runs %v..%v with self time %v", w.name, s.ID, s.Start, s.End, s.Self)
			}
		}
		for _, n := range []string{"workload", "runner", "trial", "prepare", "measure", "report", "probe"} {
			if !names[n] {
				t.Errorf("%s: no %q span", w.name, n)
			}
		}
	}
	if len(accesses) != 1 {
		t.Errorf("offline.cpu_accesses_demo differs across runs: %v", accesses)
	}
	if n := countLines(t, filepath.Join(work, "history.jsonl")); n != 2*len(workloads) {
		t.Errorf("history has %d records, want one per invocation (%d)", n, 2*len(workloads))
	}
}

// TestRepetitionsAreFreshProcesses runs two traced repetitions as separate
// children: the experiments package memoizes perfsim results per process,
// so only fresh processes make both repetitions pay the same work.
func TestRepetitionsAreFreshProcesses(t *testing.T) {
	work := t.TempDir()
	var layers []map[string]float64
	for i := 0; i < 2; i++ {
		c, err := spawn(context.Background(), filepath.Join(work, "result.json"),
			"-workload", "registry", "-size", sizeTiny, "-mode", modeTrace, "-work", work)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.res.Problems) > 0 {
			t.Fatalf("repetition %d: %v", i, c.res.Problems)
		}
		layers = append(layers, c.res.Layers)
	}
	for i, l := range layers {
		if l["perfsim.s"] <= 0 {
			t.Errorf("repetition %d: perfsim.s = %v, want > 0", i, l["perfsim.s"])
		}
	}
	for _, k := range deterministicLayers {
		if layers[0][k] != layers[1][k] {
			t.Errorf("%s: %v then %v", k, layers[0][k], layers[1][k])
		}
	}
	if layers[0]["store.builds"] == 0 {
		t.Error("no offline builds counted")
	}
}

// TestPinnedDigest checks a run against a pin file: the digest the run
// itself produced passes, a wrong one fails the run with report_ok=0.
func TestPinnedDigest(t *testing.T) {
	work := t.TempDir()
	c, err := spawn(context.Background(), filepath.Join(work, "result.json"),
		"-workload", "paper_offline", "-size", sizeTiny, "-mode", modeRun, "-work", work)
	if err != nil {
		t.Fatal(err)
	}
	defer func(b []byte) { pinsJSON = b }(pinsJSON)
	for _, tc := range []struct {
		digest string
		ok     bool
	}{{c.res.Digest, true}, {strings.Repeat("0", 64), false}} {
		b, err := json.Marshal(pinSet{sizeTiny: {"paper_offline": {"1": tc.digest}}})
		if err != nil {
			t.Fatal(err)
		}
		pinsJSON = b
		code, res := runBench(t, work, "-workload", "paper_offline", "-trace", "1")
		if res.Correct != tc.ok || (code == 0) != tc.ok {
			t.Errorf("pin %s…: exit %d, correct %v; want correct %v", tc.digest[:8], code, res.Correct, tc.ok)
		}
	}
}

// TestJudge covers the gain rule and the regression bound.
func TestJudge(t *testing.T) {
	m := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.1}
	parent := []float64{10, 10.2, 9.9, 10.1, 10, 10.3, 9.8, 10.1, 10, 10.2}
	faster := []float64{9, 9.1, 8.9, 9.2, 9, 9.1, 9, 8.8, 9.1, 9}
	slower := []float64{12, 12.1, 11.9, 12.2, 12, 12.1, 12, 11.8, 12.1, 12}
	same := []float64{10.1, 9.9, 10, 10.2, 10.1, 9.9, 10, 10.1, 10, 10.2}
	for _, tc := range []struct {
		change []float64
		want   string
	}{{faster, "gain"}, {slower, "regression"}, {same, "no regression"}, {faster[:5], "no regression"}} {
		if got := judge(parent, tc.change, m).verdict; got != tc.want {
			t.Errorf("judge(%v) = %s, want %s", tc.change, got, tc.want)
		}
	}
}

func TestSummarizeMatchesExclusiveQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, "s")
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Errorf("summarize = %+v", s)
	}
}

func countLines(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	for sc := bufio.NewScanner(f); sc.Scan(); {
		n++
	}
	return n
}
