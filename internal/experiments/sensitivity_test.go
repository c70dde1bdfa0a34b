// External test package: these tests drive the sweeps the way production
// does — through internal/runner — which the experiments package itself
// cannot import (the runner depends on it).
package experiments_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/runner"
)

func TestSweepRegistry(t *testing.T) {
	ids := map[string]bool{}
	for _, sw := range experiments.Sweeps() {
		if sw.ID == "" || sw.Short == "" || sw.Run == nil {
			t.Errorf("sweep %q incompletely registered", sw.ID)
		}
		if ids[sw.ID] {
			t.Errorf("duplicate sweep id %q", sw.ID)
		}
		ids[sw.ID] = true
		if err := sw.Grid.Validate(); err != nil {
			t.Errorf("sweep %q grid: %v", sw.ID, err)
		}
		got, ok := experiments.SweepByID(sw.ID)
		if !ok || got.ID != sw.ID {
			t.Errorf("SweepByID(%q) failed", sw.ID)
		}
	}
	if _, ok := experiments.SweepByID("nope"); ok {
		t.Error("unknown sweep id must not resolve")
	}
}

// TestSweepCellsProduceStableMetrics runs the first cell of every sweep
// end to end at demo scale: metrics must exist, carry stable snake_case
// names, and not duplicate.
func TestSweepCellsProduceStableMetrics(t *testing.T) {
	for _, sw := range experiments.Sweeps() {
		sw := sw
		t.Run(sw.ID, func(t *testing.T) {
			t.Parallel()
			cell := sw.Grid.Cells()[0]
			seed := runner.CellSeed(1, sw.ID, cell.Key(), 0)
			res, err := sw.Run(experiments.Demo, seed, cell)
			if err != nil {
				t.Fatalf("%s[%s]: %v", sw.ID, cell.Key(), err)
			}
			if len(res.Metrics) == 0 {
				t.Fatalf("%s: no metrics", sw.ID)
			}
			if len(res.Rows) == 0 {
				t.Errorf("%s: no table rows", sw.ID)
			}
			names := map[string]bool{}
			for _, m := range res.Metrics {
				if names[m.Name] {
					t.Errorf("%s: duplicate metric %q", sw.ID, m.Name)
				}
				names[m.Name] = true
			}
		})
	}
}

// TestNoiseSensitivityMonotone is the PR's acceptance criterion: at demo
// scale the chase-accuracy curve must be monotonically non-increasing as
// the background noise rate rises, under exactly the seeds the CLI's
// default sweep invocation (-seed 1 -trials 1) uses.
func TestNoiseSensitivityMonotone(t *testing.T) {
	sw, ok := experiments.SweepByID("sens_chase_noise")
	if !ok {
		t.Fatal("sens_chase_noise not registered")
	}
	rep, err := runner.New(runner.Config{}).RunSweep(sw, runner.Job{
		Scale: experiments.Demo, Seed: 1, Trials: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if failed := rep.Failed(); failed > 0 {
		t.Fatalf("%d cells failed", failed)
	}
	curve := rep.MetricCurve("chase_accuracy")
	if len(curve) != len(sw.Grid[0].Values) {
		t.Fatalf("curve has %d points want %d", len(curve), len(sw.Grid[0].Values))
	}
	for i, m := range curve {
		t.Logf("noise=%.0f accuracy=%.4f", sw.Grid[0].Values[i], m.Summary.Mean)
		if m.Summary.Mean <= 0 || m.Summary.Mean > 1 {
			t.Errorf("accuracy %v outside (0,1]", m.Summary.Mean)
		}
		if i > 0 && m.Summary.Mean > curve[i-1].Summary.Mean {
			t.Errorf("accuracy rose with noise: %.4f -> %.4f at %.0f accesses/s",
				curve[i-1].Summary.Mean, m.Summary.Mean, sw.Grid[0].Values[i])
		}
	}
	// The curve must also span a real effect, not a flat line: the
	// quietest cell should sit well above the noisiest.
	if head, tail := curve[0].Summary.Mean, curve[len(curve)-1].Summary.Mean; head-tail < 0.1 {
		t.Errorf("no sensitivity measured: accuracy %.4f -> %.4f", head, tail)
	}
}
