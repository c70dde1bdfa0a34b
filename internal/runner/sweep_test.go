package runner

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

// fakeSweep measures a deterministic function of (cell, seed) so the
// sweep plumbing can be checked exactly.
func fakeSweep() experiments.Sweep {
	return experiments.Sweep{
		ID:    "fake_sweep",
		Short: "fake sensitivity curve",
		Grid: scenario.Grid{
			{Name: "x", Values: []float64{1, 2}},
			{Name: "y", Values: []float64{10, 20, 30}},
		},
		Run: func(_ experiments.Scale, seed int64, cell scenario.Cell) (experiments.Result, error) {
			x, _ := cell.Value("x")
			y, _ := cell.Value("y")
			res := experiments.Result{ID: "fake_sweep", Title: "fake", Header: []string{"k"}, Rows: [][]string{{"v"}}}
			res.AddMetric("xy", "units", x*y)
			res.AddMetric("seed_mod", "", float64(seed%1000))
			return res, nil
		},
	}
}

func sweepJSON(t *testing.T, sw experiments.Sweep, cfg Config, job Job) []byte {
	t.Helper()
	rep, err := New(cfg).RunSweep(sw, job)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSweepParallelWidthDeterminism is the sweep's core contract: byte-
// identical JSON for any worker-pool width.
func TestSweepParallelWidthDeterminism(t *testing.T) {
	job := Job{Scale: experiments.Demo, Seed: 5, Trials: 3}
	serial := sweepJSON(t, fakeSweep(), Config{Parallel: 1}, job)
	for _, width := range []int{2, 8} {
		if got := sweepJSON(t, fakeSweep(), Config{Parallel: width}, job); !bytes.Equal(serial, got) {
			t.Errorf("sweep JSON differs between -parallel 1 and -parallel %d", width)
		}
	}
}

func TestSweepCellsOrderedAndKeyed(t *testing.T) {
	rep, err := New(Config{Parallel: 4}).RunSweep(fakeSweep(), Job{Scale: experiments.Demo, Seed: 1, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != SweepSchemaVersion || rep.Sweep != "fake_sweep" {
		t.Fatalf("report header wrong: %+v", rep)
	}
	wantKeys := []string{"x=1,y=10", "x=1,y=20", "x=1,y=30", "x=2,y=10", "x=2,y=20", "x=2,y=30"}
	if len(rep.Cells) != len(wantKeys) {
		t.Fatalf("got %d cells want %d", len(rep.Cells), len(wantKeys))
	}
	for i, c := range rep.Cells {
		if c.Key != wantKeys[i] {
			t.Errorf("cell %d key %q want %q (row-major grid order)", i, c.Key, wantKeys[i])
		}
		if !c.OK {
			t.Errorf("cell %s failed: %s", c.Key, c.Error)
		}
		x, y := c.Coords["x"], c.Coords["y"]
		m := c.Metrics[0]
		if m.Name != "xy" || m.Summary.Mean != x*y || m.Summary.StdDev != 0 {
			t.Errorf("cell %s metric wrong: %+v", c.Key, m)
		}
		// Per-cell seeds must be decorrelated: trials of one cell see the
		// cell's own derived seeds.
		for ti, v := range c.Metrics[1].Values {
			want := float64(CellSeed(1, "fake_sweep", c.Key, ti) % 1000)
			if v != want {
				t.Errorf("cell %s trial %d seed_mod %v want %v", c.Key, ti, v, want)
			}
		}
	}
}

// TestSweepReportCarriesLabels asserts categorical coordinates survive
// into the report: a labeled axis cell must serialize its label alongside
// the numeric coordinate, because the number alone (a registry index)
// changes meaning whenever the registry order does.
func TestSweepReportCarriesLabels(t *testing.T) {
	sw := fakeSweep()
	sw.Grid = scenario.Grid{
		{Name: "defense", Values: []float64{0, 1}, Labels: []string{"none", "no-ddio"}},
		{Name: "y", Values: []float64{10}},
	}
	rep, err := New(Config{}).RunSweep(sw, Job{Scale: experiments.Demo, Seed: 1, Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("got %d cells want 2", len(rep.Cells))
	}
	for i, want := range []string{"none", "no-ddio"} {
		c := rep.Cells[i]
		if c.Labels["defense"] != want {
			t.Errorf("cell %d labels = %v, want defense=%s", i, c.Labels, want)
		}
		if _, ok := c.Labels["y"]; ok {
			t.Errorf("numeric axis y must not be labeled: %v", c.Labels)
		}
		if c.Coords["defense"] != float64(i) {
			t.Errorf("cell %d numeric coord lost: %v", i, c.Coords)
		}
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"labels"`)) {
		t.Error("sweep JSON lacks the labels field")
	}
}

// TestCellSeedsDistinct guards the decorrelation of per-cell trial seeds
// across every registered sweep's whole grid.
func TestCellSeedsDistinct(t *testing.T) {
	seen := map[int64]string{}
	for _, sw := range experiments.Sweeps() {
		for _, cell := range sw.Grid.Cells() {
			for ti := 0; ti < 8; ti++ {
				s := CellSeed(1, sw.ID, cell.Key(), ti)
				key := fmt.Sprintf("%s/%s/%d", sw.ID, cell.Key(), ti)
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed collision: %s and %s both derive %d", prev, key, s)
				}
				seen[s] = key
			}
		}
	}
}

func TestSweepCellFailureIsolated(t *testing.T) {
	sw := fakeSweep()
	inner := sw.Run
	sw.Run = func(scale experiments.Scale, seed int64, cell scenario.Cell) (experiments.Result, error) {
		if x, _ := cell.Value("x"); x == 2 {
			return experiments.Result{}, errors.New("cell kaput")
		}
		return inner(scale, seed, cell)
	}
	rep, err := New(Config{Parallel: 3}).RunSweep(sw, Job{Scale: experiments.Demo, Seed: 1, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() != 3 {
		t.Fatalf("Failed() = %d want 3 (the x=2 half of the grid)", rep.Failed())
	}
	for _, c := range rep.Cells {
		if x := c.Coords["x"]; x == 2 {
			if c.OK || !strings.Contains(c.Error, "cell kaput") {
				t.Errorf("cell %s should have failed: %+v", c.Key, c)
			}
		} else if !c.OK {
			t.Errorf("healthy cell %s marked failed", c.Key)
		}
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "FAILED") {
		t.Error("text rendering must surface cell failures")
	}
}

func TestSweepRejectsBadInput(t *testing.T) {
	if _, err := New(Config{}).RunSweep(experiments.Sweep{ID: "norun", Grid: scenario.Grid{{Name: "a", Values: []float64{1}}}}, Job{}); err == nil {
		t.Error("sweep without Run must error")
	}
	sw := fakeSweep()
	sw.Grid = scenario.Grid{}
	if _, err := New(Config{}).RunSweep(sw, Job{}); err == nil {
		t.Error("empty grid must error")
	}
}

func TestSweepMetricCurve(t *testing.T) {
	rep, err := New(Config{Parallel: 2}).RunSweep(fakeSweep(), Job{Scale: experiments.Demo, Seed: 1, Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	curve := rep.MetricCurve("xy")
	if len(curve) != 6 {
		t.Fatalf("curve has %d points want 6", len(curve))
	}
	want := []float64{10, 20, 30, 20, 40, 60}
	for i, m := range curve {
		if m.Summary.Mean != want[i] {
			t.Errorf("curve[%d] = %v want %v", i, m.Summary.Mean, want[i])
		}
	}
	if pts := rep.MetricCurve("missing"); len(pts) != 0 {
		t.Errorf("unknown metric produced %d points", len(pts))
	}
}

func TestSweepTextRendering(t *testing.T) {
	rep, err := New(Config{Parallel: 2}).RunSweep(fakeSweep(), Job{Scale: experiments.Demo, Seed: 1, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== sweep fake_sweep", "x=1,y=10", "xy", "2 trial(s), 6 cell(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}
