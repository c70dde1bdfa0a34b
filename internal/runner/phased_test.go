package runner

import (
	"bytes"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

// TestWarmColdByteIdenticalExperiments is the PR's acceptance criterion
// for the experiment path: for the same (selection, scale, seed, trials),
// a warm run (shared offline artifacts) and a cold run (rebuild per
// trial) must serialize to byte-identical JSON. fig10 is offline-heavy
// and cheap online; fig5 covers the non-phased path riding along.
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
// contract: through the runner, trial 0 of a phase-split experiment must
// reproduce the monolithic Run(seed) result exactly (this is what keeps
// the historical golden files valid).
func TestPhasedTrialZeroMatchesMonolithicRun(t *testing.T) {
	e, ok := experiments.ByID("fig10")
	if !ok {
		t.Fatal("fig10 not registered")
	}
	if !e.Phased() {
		t.Fatal("fig10 should be phase-split")
	}
	direct, err := e.Run(experiments.Demo, TrialSeed(11, e.ID, 0))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := New(Config{Warm: true}).Run([]experiments.Experiment{e}, Job{Scale: experiments.Demo, Seed: 11, Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	er := rep.Experiments[0]
	if !er.OK {
		t.Fatalf("trial failed: %s", er.Error)
	}
	if len(er.Metrics) != len(direct.Metrics) {
		t.Fatalf("metric count %d vs %d", len(er.Metrics), len(direct.Metrics))
	}
	for i, m := range direct.Metrics {
		if er.Metrics[i].Name != m.Name || er.Metrics[i].Values[0] != m.Value {
			t.Errorf("metric %d: runner %s=%v, direct %s=%v",
				i, er.Metrics[i].Name, er.Metrics[i].Values[0], m.Name, m.Value)
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
