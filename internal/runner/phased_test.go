package runner

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/defense"
	"repro/internal/experiments"
	"repro/internal/scenario"
)

// TestWarmColdByteIdenticalExperiments is the warm/cold contract for the
// experiment path: for the same (selection, scale, seed, trials), a warm
// run (shared offline artifacts) and a cold run (rebuild per trial) must
// serialize to byte-identical JSON. fig10 is offline-heavy and cheap
// online; fig5, whose prepare is empty, rides along.
func TestWarmColdByteIdenticalExperiments(t *testing.T) {
	var sel []experiments.Experiment
	for _, id := range []string{"fig5", "fig10"} {
		e, ok := experiments.ByID(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		sel = append(sel, e)
	}
	job := Job{Scale: experiments.Demo, Seed: 9, Trials: 3}
	cold := runJSON(t, sel, Config{Parallel: 4}, job)
	if got := runJSON(t, sel, Config{Parallel: 4, Warm: true}, job); !bytes.Equal(cold, got) {
		t.Error("warm and cold runs serialized differently")
	}
}

// TestWarmColdByteIdenticalSweep is the sweep-path criterion, on a
// trimmed copy of the real timer sweep (two cells sharing one offline
// machine shape).
func TestWarmColdByteIdenticalSweep(t *testing.T) {
	sw, ok := experiments.SweepByID("sens_covert_timer")
	if !ok {
		t.Fatal("sens_covert_timer not registered")
	}
	sw.Grid = scenario.Grid{{Name: scenario.AxisTimerNoise, Values: []float64{0, 64}}}
	job := Job{Scale: experiments.Demo, Seed: 4, Trials: 2}
	cold := sweepJSON(t, sw, Config{Parallel: 4}, job)
	if got := sweepJSON(t, sw, Config{Parallel: 4, Warm: true}, job); !bytes.Equal(cold, got) {
		t.Error("warm and cold sweep runs serialized differently")
	}
}

// TestWarmColdByteIdenticalDefenseSweep extends the sweep criterion to a
// defense axis: cells differ in the machine itself (and, for timer
// coarsening, only in TimerNoise, which the machine fingerprint excludes
// but the artifact key carries), yet warm and cold runs must still
// serialize identically. Three defenses times three reps are nine
// distinct machines, so the warm store builds exactly nine.
func TestWarmColdByteIdenticalDefenseSweep(t *testing.T) {
	sw, ok := experiments.SweepByID("sens_chase_defense")
	if !ok {
		t.Fatal("sens_chase_defense not registered")
	}
	sw.Grid = scenario.Grid{scenario.DefenseAxis("none", "timer-coarse-64", "adaptive-partition")}
	job := Job{Scale: experiments.Demo, Seed: 4, Trials: 1}
	cold := sweepJSON(t, sw, Config{Parallel: 4}, job)
	store := experiments.NewArtifactStore()
	if got := sweepJSON(t, sw, Config{Parallel: 4, Warm: true, Store: store}, job); !bytes.Equal(cold, got) {
		t.Error("warm and cold defense-sweep runs serialized differently")
	}
	if got := store.Builds(); got != 9 {
		t.Errorf("offline builds = %d, want 9", got)
	}
}

// TestPhasedTrialZeroMatchesMonolithicRun pins the compatibility
// contract: through the runner, trial 0 must reproduce the single-seed
// Run(seed) result exactly (this is what keeps the golden files valid).
// A frontier candidate is built like every registry experiment, so its
// Run is usable and holds the same contract; a timer-coarsening one also
// exercises the amplified-attacker rig.
func TestPhasedTrialZeroMatchesMonolithicRun(t *testing.T) {
	const root = 11
	fig10, ok := experiments.ByID("fig10")
	if !ok {
		t.Fatal("fig10 not registered")
	}
	d, err := defense.NewTimerCoarsening(64)
	if err != nil {
		t.Fatal(err)
	}
	budget := experiments.DefenseEvalBudget{CovertSymbols: 20, FPTrials: 2, NginxRequests: 500}
	for _, e := range []experiments.Experiment{fig10, experiments.DefenseCandidateExperiment("cand", d, budget, 5)} {
		want, err := e.Run(experiments.Demo, TrialSeed(root, e.ID, 0))
		if err != nil {
			t.Fatal(err)
		}
		got := trialResults(t, Config{Warm: true}, []experiments.Experiment{e}, Job{Scale: experiments.Demo, Seed: root, Trials: 1})
		if !reflect.DeepEqual(got[outcomeKey{unit: e.ID}], want) {
			t.Errorf("%s: runner trial 0 differs from Run(TrialSeed(%d, %q, 0))", e.ID, root, e.ID)
		}
	}
}

// trialResults runs sel under cfg and returns every trial's result by
// (experiment, trial).
func trialResults(t *testing.T, cfg Config, sel []experiments.Experiment, job Job) map[outcomeKey]experiments.Result {
	t.Helper()
	got := resultSink{}
	cfg.Sinks = append(cfg.Sinks, got)
	if _, err := New(cfg).Run(sel, job); err != nil {
		t.Fatal(err)
	}
	return got
}

// resultSink records each outcome's result, failing the run on a trial
// error.
type resultSink map[outcomeKey]experiments.Result

func (s resultSink) Put(o TrialOutcome) error {
	if o.Err != nil {
		return fmt.Errorf("%s trial %d: %w", o.Unit, o.Trial, o.Err)
	}
	s[outcomeKey{unit: o.Unit, trial: o.Trial}] = o.Result
	return nil
}

// TestOnlineExperimentsRecomputePerTrial pins the empty-prepare shape:
// fig5 (driver mapping) and fig14 (perfsim) have no offline phase, so
// trial t must be the whole experiment under TrialSeed(root, id, t), not
// a re-measurement of trial 0's machine.
func TestOnlineExperimentsRecomputePerTrial(t *testing.T) {
	const root = 6
	bodies := map[string]func(experiments.Scale, int64) (experiments.Result, error){
		"fig5":  experiments.Fig5,
		"fig14": experiments.Fig14,
	}
	var sel []experiments.Experiment
	for _, id := range []string{"fig5", "fig14"} {
		e, ok := experiments.ByID(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		sel = append(sel, e)
	}
	got := trialResults(t, Config{Parallel: 2, Warm: true}, sel, Job{Scale: experiments.Demo, Seed: root, Trials: 3})
	for id, body := range bodies {
		for trial := 0; trial < 3; trial++ {
			want, err := body(experiments.Demo, TrialSeed(root, id, trial))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[outcomeKey{unit: id, trial: trial}], want) {
				t.Errorf("%s trial %d differs from %s(Demo, TrialSeed(%d, %q, %d))", id, trial, id, root, id, trial)
			}
		}
	}
}

// TestWarmTrialsDecorrelate guards the online-reseed plumbing: trials of
// a phase-split experiment share one prepared machine but must not
// collapse into identical measurements — ambient randomness is re-derived
// per trial.
func TestWarmTrialsDecorrelate(t *testing.T) {
	e, ok := experiments.ByID("fig7")
	if !ok {
		t.Fatal("fig7 not registered")
	}
	rep, err := New(Config{Parallel: 3, Warm: true}).Run([]experiments.Experiment{e}, Job{Scale: experiments.Demo, Seed: 2, Trials: 3})
	if err != nil {
		t.Fatal(err)
	}
	er := rep.Experiments[0]
	if !er.OK {
		t.Fatalf("trial failed: %s", er.Error)
	}
	varied := false
	for _, m := range er.Metrics {
		if m.Summary.StdDev > 0 {
			varied = true
			break
		}
	}
	if !varied {
		t.Error("every metric identical across warm trials: online streams are not decorrelated")
	}
}

// TestOfflineSeedIsTrialZero pins the derivation rule the compatibility
// contract rests on.
func TestOfflineSeedIsTrialZero(t *testing.T) {
	if OfflineSeed(7, "fig7") != TrialSeed(7, "fig7", 0) {
		t.Error("OfflineSeed must equal trial 0's seed")
	}
	if SweepOfflineSeed(7, "s") == SweepOfflineSeed(7, "other") {
		t.Error("sweep offline seeds must differ across sweeps")
	}
	if SweepOfflineSeed(7, "s") == SweepOfflineSeed(8, "s") {
		t.Error("sweep offline seeds must differ across roots")
	}
}
