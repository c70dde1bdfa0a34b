package runner

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

// TestNoArtifactSharedAcrossExperiments pins the invariant that makes
// per-experiment artifact release rebuild-free: no two registry
// experiments prepare a common machine, because every Prepare seeds its
// machines from its own offline seed. Preparing the whole registry
// through one shared store must build exactly as much as preparing each
// experiment through a store of its own, and a second root seed must
// build everything again (a Prepare that seeded a machine from anything
// but ctx.Seed would be served from the first pass).
func TestNoArtifactSharedAcrossExperiments(t *testing.T) {
	const wantBuilds = 38
	all := experiments.All()
	// prepareAll prepares every experiment at root, through the store
	// storeFor picks for it, two at a time.
	prepareAll := func(root int64, storeFor func(i int) *experiments.ArtifactStore) {
		t.Helper()
		sem := make(chan struct{}, 2)
		errs := make([]error, len(all))
		var wg sync.WaitGroup
		for i, e := range all {
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer func() { <-sem; wg.Done() }()
				_, errs[i] = e.Prepare(experiments.PrepareCtx{
					Scale: experiments.Demo, Seed: OfflineSeed(root, e.ID), Store: storeFor(i),
				})
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", all[i].ID, err)
			}
		}
	}

	shared := experiments.NewArtifactStore()
	prepareAll(1, func(int) *experiments.ArtifactStore { return shared })
	if got := shared.Builds(); got != wantBuilds {
		t.Errorf("registry through one store: %d builds, want %d", got, wantBuilds)
	}

	own := make([]*experiments.ArtifactStore, len(all))
	for i := range own {
		own[i] = experiments.NewArtifactStore()
	}
	prepareAll(1, func(i int) *experiments.ArtifactStore { return own[i] })
	separate := 0
	for _, s := range own {
		separate += s.Builds()
	}
	if separate != shared.Builds() {
		t.Errorf("registry through one store per experiment: %d builds, one shared store: %d; experiments share a machine",
			separate, shared.Builds())
	}

	before := shared.Builds()
	prepareAll(2, func(int) *experiments.ArtifactStore { return shared })
	if got := shared.Builds() - before; got != before {
		t.Errorf("a second root seed built %d machines, the first %d; some machine ignores the offline seed", got, before)
	}
}

// TestRunReleasesArtifacts: a unit keeps its machines resident across
// all of its trials (one build serves three) and the store lets go of
// them when the job ends, whether the run completed or stopped on its
// trial budget. A sweep holds the machines its cells share for the whole
// grid: its four (cell, trial) pairs build its three distinct machines
// once each.
func TestRunReleasesArtifacts(t *testing.T) {
	fig10, ok := experiments.ByID("fig10")
	if !ok {
		t.Fatal("fig10 not registered")
	}
	sel := []experiments.Experiment{fig10}
	job := Job{Scale: experiments.Demo, Seed: 3, Trials: 3}
	check := func(name string, store *experiments.ArtifactStore, builds int) {
		t.Helper()
		if got := store.Builds(); got != builds {
			t.Errorf("%s: %d builds, want %d", name, got, builds)
		}
		if got := store.Resident(); got != 0 {
			t.Errorf("%s: %d artifacts resident after the run, want 0", name, got)
		}
	}

	store := experiments.NewArtifactStore()
	runJSON(t, sel, Config{Parallel: 2, Warm: true, Store: store}, job)
	check("run", store, 1)

	store = experiments.NewArtifactStore()
	_, err := New(Config{Parallel: 2, Warm: true, Store: store, CheckpointDir: t.TempDir(), TrialBudget: 2}).Run(sel, job)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("budgeted run: err %v, want ErrBudget", err)
	}
	check("budgeted run", store, 1)

	sw, ok := experiments.SweepByID("sens_covert_timer")
	if !ok {
		t.Fatal("sens_covert_timer not registered")
	}
	sw.Grid = scenario.Grid{{Name: scenario.AxisTimerNoise, Values: []float64{0, 64}}}
	store = experiments.NewArtifactStore()
	sweepJSON(t, sw, Config{Parallel: 2, Warm: true, Store: store}, Job{Scale: experiments.Demo, Seed: 4, Trials: 2})
	check("sweep", store, 3)
}
