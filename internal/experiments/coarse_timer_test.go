package experiments

import (
	"strings"
	"testing"

	"repro/internal/probe"
)

// TestChaseCoarseTimerToleratesOfflineCollapse pins the experiment's
// failure semantics: a fine-timer attacker whose offline phase caves in
// under the coarse timer is an OUTCOME (accuracy 0, calibration_ok 0, a
// note naming the collapse), not an experiment error — warm and cold
// runs record identical bytes because the simulation's failures are as
// deterministic as its successes.
func TestChaseCoarseTimerToleratesOfflineCollapse(t *testing.T) {
	ctx := PrepareCtx{Scale: Demo, Seed: 42}
	art, err := PrepareChaseCoarseTimer(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Force the collapse path regardless of whether this seed's fine-timer
	// offline phase happened to limp through.
	const label = "baseline-off64"
	if _, ok := art.Rigs[label]; !ok && len(art.Failed) == 0 {
		t.Fatalf("artifact has neither rig nor failure for %s", label)
	}
	delete(art.Rigs, label)
	art.Failed[label] = "probe: no conflict groups found with 1536 pages; map more memory"

	res, err := MeasureChaseCoarseTimer(MeasureCtx{Scale: Demo, Seed: 42}, art)
	if err != nil {
		t.Fatalf("a collapsed offline phase must not fail the experiment: %v", err)
	}
	got := map[string]float64{}
	for _, m := range res.Metrics {
		got[m.Name] = m.Value
	}
	if v := got["offline64_baseline_accuracy"]; v != 0 {
		t.Errorf("collapsed attacker accuracy = %v want 0", v)
	}
	if v := got["offline64_baseline_calibration_ok"]; v != 0 {
		t.Errorf("collapsed attacker calibration_ok = %v want 0", v)
	}
	found := false
	for _, n := range res.Notes {
		if strings.Contains(n, label) && strings.Contains(n, "collapsed") {
			found = true
		}
	}
	if !found {
		t.Errorf("no note names the collapsed offline phase: %q", res.Notes)
	}
	// The amplified attacker's rows must be unaffected.
	if v := got["offline64_amplified_accuracy"]; v < 0.7 {
		t.Errorf("amplified offline-coarse accuracy %v; want healthy (>= 0.7)", v)
	}
}

// TestArtifactStoreKeysStrategiesApart asserts the warm-start store never
// hands a fine-timer-prepared machine to the amplified attacker (or vice
// versa): identical machine options under different strategies must build
// twice.
func TestArtifactStoreKeysStrategiesApart(t *testing.T) {
	store := NewArtifactStore()
	ctx := PrepareCtx{Scale: Demo, Seed: 7, Store: store}
	art := ctx.NewArtifact()
	opts := machineOptions(Demo, 7)
	if err := ctx.AddRig(art, "fine", opts, probe.DefaultStrategy()); err != nil {
		t.Fatal(err)
	}
	if err := ctx.AddRig(art, "amp", opts, probe.AmplifiedStrategy()); err != nil {
		t.Fatal(err)
	}
	if store.Builds() != 2 {
		t.Fatalf("store built %d rigs for two strategies; strategies collided", store.Builds())
	}
	// Same strategy again: must be served from the store, not rebuilt.
	if err := ctx.AddRig(art, "amp2", opts, probe.AmplifiedStrategy()); err != nil {
		t.Fatal(err)
	}
	if store.Builds() != 2 {
		t.Fatalf("store rebuilt an identical (options, strategy) machine: %d builds", store.Builds())
	}
	if art.Rigs["fine"].Spy.Strategy.Amplify || !art.Rigs["amp"].Spy.Strategy.Amplify {
		t.Error("rigs carry the wrong strategies")
	}
}
