package runner

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

// The warm-vs-cold benchmark pairs quantify the phase-split payoff: a
// warm run prepares each distinct machine once and clones it per trial
// (and per sweep cell), a cold run rebuilds the offline phase —
// eviction-set construction, calibration — every time. CI runs these
// (BENCH_runner.json artifact) so the wall-clock trajectory of the
// runner's hot path is tracked per commit. Demo scale keeps CI fast; at
// paper scale the offline phase costs minutes per machine and the same
// ratios compound accordingly.

// benchExperiments is an offline-dominated selection: fig10's online
// phase (one 24-symbol covert decode) is milliseconds against an
// offline phase of full eviction-set discovery.
func benchExperiments(b *testing.B) []experiments.Experiment {
	b.Helper()
	e, ok := experiments.ByID("fig10")
	if !ok {
		b.Fatal("fig10 not registered")
	}
	return []experiments.Experiment{e}
}

func benchRun(b *testing.B, warm bool) {
	sel := benchExperiments(b)
	r := New(Config{Parallel: 2, Warm: warm})
	job := Job{Scale: experiments.Demo, Seed: 17, Trials: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := r.Run(sel, job)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Failed() > 0 {
			b.Fatalf("%d experiments failed", rep.Failed())
		}
	}
}

func BenchmarkRunnerMultiTrialCold(b *testing.B) { benchRun(b, false) }
func BenchmarkRunnerMultiTrialWarm(b *testing.B) { benchRun(b, true) }

// benchSweep is the timer sweep trimmed to three cells; its swept axis is
// online-only, so a warm run prepares the whole grid's machines once.
func benchSweep(b *testing.B, warm bool) {
	sw, ok := experiments.SweepByID("sens_covert_timer")
	if !ok {
		b.Fatal("sens_covert_timer not registered")
	}
	sw.Grid = scenario.Grid{{Name: scenario.AxisTimerNoise, Values: []float64{0, 16, 64}}}
	r := New(Config{Parallel: 2, Warm: warm})
	job := Job{Scale: experiments.Demo, Seed: 17, Trials: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := r.RunSweep(sw, job)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Failed() > 0 {
			b.Fatalf("%d cells failed", rep.Failed())
		}
	}
}

func BenchmarkRunnerSweepCold(b *testing.B) { benchSweep(b, false) }
func BenchmarkRunnerSweepWarm(b *testing.B) { benchSweep(b, true) }
