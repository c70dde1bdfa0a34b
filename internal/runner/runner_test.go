package runner

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

// online gives a seed-only trial body the shape the runner requires: an
// empty prepare and a measure that runs body under the trial seed, the
// way the registry wraps its experiments without an offline phase.
func online(id, short string, body func(experiments.Scale, int64) (experiments.Result, error)) experiments.Experiment {
	return experiments.Experiment{
		ID:    id,
		Short: short,
		Prepare: func(ctx experiments.PrepareCtx) (*experiments.Artifact, error) {
			return ctx.NewArtifact(), nil
		},
		Measure: func(ctx experiments.MeasureCtx, _ *experiments.Artifact) (experiments.Result, error) {
			return body(ctx.Scale, ctx.Seed)
		},
	}
}

// onlineSweep is online for a sweep: body runs per cell under the cell's
// trial seed.
func onlineSweep(id, short string, grid scenario.Grid, body func(experiments.Scale, int64, scenario.Cell) (experiments.Result, error)) experiments.Sweep {
	return experiments.Sweep{
		ID:    id,
		Short: short,
		Grid:  grid,
		Prepare: func(ctx experiments.PrepareCtx, _ scenario.Cell) (*experiments.Artifact, error) {
			return ctx.NewArtifact(), nil
		},
		Measure: func(ctx experiments.MeasureCtx, _ *experiments.Artifact, cell scenario.Cell) (experiments.Result, error) {
			return body(ctx.Scale, ctx.Seed, cell)
		},
	}
}

// fakeExp returns a cheap deterministic experiment whose single metric
// is a pure function of the seed, so aggregation can be checked exactly.
func fakeExp(id string) experiments.Experiment {
	return online(id, "fake "+id, func(scale experiments.Scale, seed int64) (experiments.Result, error) {
		res := experiments.Result{
			ID:     id,
			Title:  "fake " + id,
			Header: []string{"k", "v"},
			Rows:   [][]string{{"seed", fmt.Sprint(seed)}},
		}
		res.AddMetric("seed_mod", "units", float64(seed%1000))
		res.AddMetric("constant", "", 42)
		return res, nil
	})
}

func runJSON(t *testing.T, sel []experiments.Experiment, cfg Config, job Job) []byte {
	t.Helper()
	rep, err := New(cfg).Run(sel, job)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelWidthDeterminism is the runner's core contract: the same
// (selection, scale, seed, trials) must serialize to byte-identical JSON
// whether trials run on one worker or on eight.
func TestParallelWidthDeterminism(t *testing.T) {
	sel := []experiments.Experiment{fakeExp("a"), fakeExp("b"), fakeExp("c")}
	if real, ok := experiments.ByID("fig5"); ok {
		sel = append(sel, real) // one real experiment for integration coverage
	}
	job := Job{Scale: experiments.Demo, Seed: 7, Trials: 4}
	serial := runJSON(t, sel, Config{Parallel: 1}, job)
	for _, width := range []int{2, 8} {
		if got := runJSON(t, sel, Config{Parallel: width}, job); !bytes.Equal(serial, got) {
			t.Errorf("JSON differs between -parallel 1 and -parallel %d", width)
		}
	}
}

func TestAggregationExact(t *testing.T) {
	const trials = 5
	rep, err := New(Config{Parallel: 4}).Run([]experiments.Experiment{fakeExp("x")}, Job{Scale: experiments.Demo, Seed: 3, Trials: trials})
	if err != nil {
		t.Fatal(err)
	}
	er := rep.Experiments[0]
	if !er.OK || len(er.Metrics) != 2 {
		t.Fatalf("unexpected report: %+v", er)
	}
	var want []float64
	var sum float64
	for ti := 0; ti < trials; ti++ {
		v := float64(TrialSeed(3, "x", ti) % 1000)
		want = append(want, v)
		sum += v
	}
	m := er.Metrics[0]
	if m.Name != "seed_mod" {
		t.Fatalf("metric order not preserved: %q", m.Name)
	}
	if len(m.Values) != trials {
		t.Fatalf("want %d values got %d", trials, len(m.Values))
	}
	for i, v := range m.Values {
		if v != want[i] {
			t.Errorf("value[%d] = %v want %v (trial order not preserved)", i, v, want[i])
		}
	}
	if math.Abs(m.Summary.Mean-sum/trials) > 1e-12 {
		t.Errorf("mean %v want %v", m.Summary.Mean, sum/trials)
	}
	if c := er.Metrics[1]; c.Summary.StdDev != 0 || c.Summary.Mean != 42 {
		t.Errorf("constant metric should aggregate to 42 +/- 0: %+v", c.Summary)
	}
}

func TestErrorPropagation(t *testing.T) {
	boom := online("boom", "always fails", func(experiments.Scale, int64) (experiments.Result, error) {
		return experiments.Result{}, errors.New("kaput")
	})
	rep, err := New(Config{Parallel: 2}).Run([]experiments.Experiment{fakeExp("ok"), boom}, Job{Scale: experiments.Demo, Seed: 1, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() != 1 {
		t.Fatalf("Failed() = %d want 1", rep.Failed())
	}
	er := rep.Experiments[1]
	if er.OK || !strings.Contains(er.Error, "kaput") {
		t.Errorf("failure not recorded: %+v", er)
	}
	if rep.Experiments[0].OK != true {
		t.Error("healthy experiment must stay OK")
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "FAILED") {
		t.Error("text rendering must surface the failure")
	}
}

// TestDuplicateMetricNamesAggregatePositionally: if an experiment ever
// emits two metrics with the same name, each occurrence must aggregate
// its own values rather than both collapsing onto the first.
func TestDuplicateMetricNamesAggregatePositionally(t *testing.T) {
	dup := online("dup", "duplicate metric names", func(_ experiments.Scale, seed int64) (experiments.Result, error) {
		res := experiments.Result{ID: "dup", Title: "dup", Header: []string{"k"}, Rows: [][]string{{"v"}}}
		res.AddMetric("m", "", float64(seed%100))
		res.AddMetric("m", "", float64(seed%100)+1000)
		return res, nil
	})
	rep, err := New(Config{Parallel: 2}).Run([]experiments.Experiment{dup}, Job{Scale: experiments.Demo, Seed: 5, Trials: 3})
	if err != nil {
		t.Fatal(err)
	}
	ms := rep.Experiments[0].Metrics
	if len(ms) != 2 {
		t.Fatalf("want 2 metric entries, got %d", len(ms))
	}
	for ti := 0; ti < 3; ti++ {
		base := float64(TrialSeed(5, "dup", ti) % 100)
		if ms[0].Values[ti] != base {
			t.Errorf("first occurrence trial %d = %v want %v", ti, ms[0].Values[ti], base)
		}
		if ms[1].Values[ti] != base+1000 {
			t.Errorf("second occurrence trial %d = %v want %v", ti, ms[1].Values[ti], base+1000)
		}
	}
}

// TestPartialFailureKeepsSurvivingTrials: one failing trial must mark
// the experiment failed without discarding the surviving trials'
// aggregate — in the report and in the text rendering.
func TestPartialFailureKeepsSurvivingTrials(t *testing.T) {
	failSeed := TrialSeed(1, "flaky", 0)
	flaky := online("flaky", "fails trial 0", func(_ experiments.Scale, seed int64) (experiments.Result, error) {
		if seed == failSeed {
			return experiments.Result{}, errors.New("boom0")
		}
		res := experiments.Result{
			ID: "flaky", Title: "flaky", Header: []string{"k"}, Rows: [][]string{{"v"}},
		}
		res.AddMetric("m", "", 1)
		return res, nil
	})
	rep, err := New(Config{Parallel: 2}).Run([]experiments.Experiment{flaky}, Job{Scale: experiments.Demo, Seed: 1, Trials: 3})
	if err != nil {
		t.Fatal(err)
	}
	er := rep.Experiments[0]
	if er.OK || !strings.Contains(er.Error, "trial 0") {
		t.Fatalf("failure not attributed to trial 0: %+v", er)
	}
	if len(er.Metrics) != 1 || er.Metrics[0].Summary.N != 2 {
		t.Fatalf("surviving trials must still aggregate: %+v", er.Metrics)
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "FAILED") || !strings.Contains(out, "== flaky: flaky ==") {
		t.Errorf("text must show both the failure and the surviving table:\n%s", out)
	}
}

func TestRunRejectsEmptySelection(t *testing.T) {
	if _, err := New(Config{}).Run(nil, Job{}); err == nil {
		t.Error("empty selection must error")
	}
}

// TestRejectsUnitsWithoutPhases: an experiment or sweep with only a Run
// function is refused up front, naming it, before any trial of the job
// runs or any journal is opened.
func TestRejectsUnitsWithoutPhases(t *testing.T) {
	var calls atomic.Int64
	count := func(experiments.Scale, int64) (experiments.Result, error) {
		calls.Add(1)
		return experiments.Result{}, nil
	}
	counted := online("counted", "counts calls", count)
	runOnly := experiments.Experiment{ID: "run_only", Short: "no phases", Run: count}
	sweep := experiments.Sweep{
		ID: "run_only_sweep", Short: "no phases",
		Grid: scenario.Grid{{Name: "x", Values: []float64{1}}},
		Run: func(scale experiments.Scale, seed int64, _ scenario.Cell) (experiments.Result, error) {
			return count(scale, seed)
		},
	}
	dir := filepath.Join(t.TempDir(), "ckpt")
	rn := New(Config{CheckpointDir: dir})
	job := Job{Scale: experiments.Demo, Seed: 1, Trials: 2}
	if _, err := rn.Run([]experiments.Experiment{counted, runOnly}, job); err == nil || !strings.Contains(err.Error(), `"run_only"`) {
		t.Errorf("Run error = %v, want one naming run_only", err)
	}
	if _, err := rn.RunSweep(sweep, job); err == nil || !strings.Contains(err.Error(), `"run_only_sweep"`) {
		t.Errorf("RunSweep error = %v, want one naming run_only_sweep", err)
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("%d trial(s) ran before the rejection", n)
	}
	if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("checkpoint dir touched before the rejection: %v", err)
	}
}

// TestRejectsDuplicateExperiments: an experiment selected twice would
// share one unit key, so one outcome slot would never be filled. The
// runner refuses the selection before any trial runs or any journal is
// opened.
func TestRejectsDuplicateExperiments(t *testing.T) {
	var calls atomic.Int64
	counted := online("counted", "counts calls", func(experiments.Scale, int64) (experiments.Result, error) {
		calls.Add(1)
		return experiments.Result{}, nil
	})
	dir := filepath.Join(t.TempDir(), "ckpt")
	sel := []experiments.Experiment{counted, fakeExp("other"), counted}
	_, err := New(Config{CheckpointDir: dir}).Run(sel, Job{Scale: experiments.Demo, Seed: 1, Trials: 2})
	if err == nil || !strings.Contains(err.Error(), `"counted"`) {
		t.Errorf("Run error = %v, want one naming counted", err)
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("%d trial(s) ran before the rejection", n)
	}
	if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("checkpoint dir touched before the rejection: %v", err)
	}
}

// TestTrialSeedsDistinct checks the derived seeds are pairwise distinct
// across the whole registry at a realistic trial count — a collision
// would silently correlate two trials.
func TestTrialSeedsDistinct(t *testing.T) {
	seen := map[int64]string{}
	for _, e := range experiments.All() {
		for ti := 0; ti < 16; ti++ {
			s := TrialSeed(1, e.ID, ti)
			key := fmt.Sprintf("%s/%d", e.ID, ti)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %s and %s both derive %d", prev, key, s)
			}
			seen[s] = key
		}
	}
}

func TestWriteTextAggregateBlock(t *testing.T) {
	rep, err := New(Config{Parallel: 2}).Run([]experiments.Experiment{fakeExp("x")}, Job{Scale: experiments.Demo, Seed: 1, Trials: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"aggregate over 3 trials", "seed_mod", "== x: fake x =="} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}
