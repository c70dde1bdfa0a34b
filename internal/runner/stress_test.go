package runner

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

// TestPanicRecoveredAsFailure: a panicking experiment must fail its own
// report entry (so cmd/experiments exits non-zero) without killing the
// worker pool or the surviving experiments.
func TestPanicRecoveredAsFailure(t *testing.T) {
	boom := experiments.Experiment{
		ID: "boom", Short: "panics",
		Run: func(experiments.Scale, int64) (experiments.Result, error) {
			panic("synthetic failure")
		},
	}
	rep, err := New(Config{Parallel: 2}).Run([]experiments.Experiment{fakeExp("ok"), boom, fakeExp("ok2")}, Job{Scale: experiments.Demo, Seed: 1, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() != 1 {
		t.Fatalf("Failed() = %d want 1", rep.Failed())
	}
	er := rep.Experiments[1]
	if er.OK || !strings.Contains(er.Error, "panic: synthetic failure") {
		t.Fatalf("panic not recorded as failure: %+v", er)
	}
	for _, i := range []int{0, 2} {
		if !rep.Experiments[i].OK {
			t.Errorf("healthy experiment %s dragged down by the panic", rep.Experiments[i].ID)
		}
	}
}

func TestSweepPanicRecoveredAsFailure(t *testing.T) {
	sw := experiments.Sweep{
		ID: "panicky", Short: "panics on one cell",
		Grid: scenario.Grid{{Name: "x", Values: []float64{1, 2, 3}}},
		Run: func(_ experiments.Scale, _ int64, cell scenario.Cell) (experiments.Result, error) {
			if x, _ := cell.Value("x"); x == 2 {
				panic(fmt.Sprintf("cell %v exploded", x))
			}
			res := experiments.Result{ID: "panicky", Title: "p", Header: []string{"k"}, Rows: [][]string{{"v"}}}
			res.AddMetric("m", "", 1)
			return res, nil
		},
	}
	rep, err := New(Config{Parallel: 3}).RunSweep(sw, Job{Scale: experiments.Demo, Seed: 1, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() != 1 {
		t.Fatalf("Failed() = %d want 1", rep.Failed())
	}
	if c := rep.Cells[1]; c.OK || !strings.Contains(c.Error, "panic") {
		t.Fatalf("panicking cell not isolated: %+v", c)
	}
}

// TestStressPoolDeterminismUnderFailures floods a wide pool with a mix of
// healthy, failing, and panicking experiments and checks the aggregated
// JSON stays byte-identical across pool widths — the determinism contract
// must survive worst-case completion orderings (this test is most
// valuable under -race).
func TestStressPoolDeterminismUnderFailures(t *testing.T) {
	build := func() []experiments.Experiment {
		var sel []experiments.Experiment
		for i := 0; i < 24; i++ {
			i := i
			switch i % 4 {
			case 1:
				sel = append(sel, experiments.Experiment{
					ID: fmt.Sprintf("fail%d", i), Short: "fails",
					Run: func(experiments.Scale, int64) (experiments.Result, error) {
						return experiments.Result{}, fmt.Errorf("err %d", i)
					},
				})
			case 3:
				sel = append(sel, experiments.Experiment{
					ID: fmt.Sprintf("panic%d", i), Short: "panics",
					Run: func(experiments.Scale, int64) (experiments.Result, error) {
						panic(i)
					},
				})
			default:
				sel = append(sel, fakeExp(fmt.Sprintf("ok%d", i)))
			}
		}
		return sel
	}
	var want []byte
	for _, width := range []int{1, 4, 16} {
		got := runJSON(t, build(), Config{Parallel: width}, Job{Scale: experiments.Demo, Seed: 9, Trials: 3})
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(want, got) {
			t.Errorf("report bytes differ at -parallel %d", width)
		}
	}
}

// TestStressPoolRunsEveryTrialExactlyOnce counts executions under a wide
// pool to catch double-dispatch or dropped jobs.
func TestStressPoolRunsEveryTrialExactlyOnce(t *testing.T) {
	var calls atomic.Int64
	counted := experiments.Experiment{
		ID: "counted", Short: "counts calls",
		Run: func(_ experiments.Scale, seed int64) (experiments.Result, error) {
			calls.Add(1)
			res := experiments.Result{ID: "counted", Title: "c", Header: []string{"k"}, Rows: [][]string{{"v"}}}
			res.AddMetric("m", "", 1)
			return res, nil
		},
	}
	const trials = 50
	rep, err := New(Config{Parallel: 16}).Run([]experiments.Experiment{counted}, Job{Scale: experiments.Demo, Seed: 2, Trials: trials})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != trials {
		t.Errorf("ran %d trials want %d", calls.Load(), trials)
	}
	if n := rep.Experiments[0].Metrics[0].Summary.N; n != trials {
		t.Errorf("aggregated %d values want %d", n, trials)
	}
}
