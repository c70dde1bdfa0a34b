// Package runner executes the experiment registry as a concurrent,
// multi-trial sweep. It fans experiments out over a worker pool, runs
// each experiment as T trials with decorrelated per-trial seeds
// (sim.DeriveSeed over "expID/trialN" labels), and reduces the
// per-trial metric values into mean / stddev / min-max summaries.
// Phase-split experiments share one prepared machine across their
// trials (see runTrial); single-shot experiments rebuild per trial.
//
// The runner's determinism contract: for a fixed (selection, scale,
// seed, trials), the aggregated Report — and therefore its JSON encoding
// — is byte-identical regardless of the worker-pool width, of warm/cold
// artifact reuse, and of whether the run was checkpointed, interrupted,
// and resumed. Trials are pure functions of their derived seed, results
// land in pre-assigned slots rather than a completion-ordered list
// (streamed through the CellSink stack — see job.go), and wall-clock
// timings are kept out of the serialized document.
//
// The API is runner.New(Config).Run / .RunSweep with a Job spec.
package runner

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// defaultParallel is the worker-pool width when none is requested.
func defaultParallel() int { return runtime.GOMAXPROCS(0) }

// TrialSeed derives the seed for one trial of one experiment. Seeds are
// decorrelated across both experiments and trial indices, so trials can
// run in any order on any worker without sharing RNG state.
func TrialSeed(root int64, expID string, trial int) int64 {
	return sim.DeriveSeed(root, fmt.Sprintf("%s/trial%d", expID, trial))
}

// OfflineSeed derives the offline-phase seed for a phase-split
// experiment. It is trial 0's seed: every trial prepares (or reuses) the
// machine trial 0 would build, which keeps a single-trial run
// byte-identical to the historical monolithic Run path — the property the
// golden files pin.
func OfflineSeed(root int64, expID string) int64 {
	return TrialSeed(root, expID, 0)
}

// trialOutcome is one (experiment, trial) slot of the result matrix.
type trialOutcome struct {
	result experiments.Result
	err    error
	wall   time.Duration
}

// safeCall executes one trial closure, converting a panic into an
// ordinary trial error so a single broken experiment cell fails its
// report entry instead of taking down the whole sweep process.
func safeCall(run func() (experiments.Result, error)) (res experiments.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return run()
}

// runTrial executes one (experiment, trial) cell. Phase-split
// experiments go through Prepare (against the shared store when warm)
// and Measure; single-shot experiments run monolithically. Trial 0 of a
// phased experiment is definitionally identical to the monolithic
// Run(TrialSeed(root, id, 0)) — OfflineSeed is trial 0's seed and Run is
// Prepare∘Measure — which is what keeps the golden files valid. Trials
// >= 1 measure trial 0's machine under re-derived ambient randomness by
// design ("prepare once, measure many"); that is a semantic choice, not
// an optimization, and holds in warm and cold mode alike — cold merely
// rebuilds the same trial-0 machine each time instead of caching it.
func runTrial(e experiments.Experiment, scale experiments.Scale, root int64, trial int, store *experiments.ArtifactStore, rigs *experiments.RigLease) (experiments.Result, error) {
	seed := TrialSeed(root, e.ID, trial)
	if !e.Phased() {
		return safeCall(func() (experiments.Result, error) { return e.Run(scale, seed) })
	}
	return safeCall(func() (experiments.Result, error) {
		art, err := e.Prepare(experiments.PrepareCtx{
			Scale: scale,
			Seed:  OfflineSeed(root, e.ID),
			Store: store,
		})
		if err != nil {
			return experiments.Result{}, err
		}
		return e.Measure(experiments.MeasureCtx{Scale: scale, Seed: seed, Rigs: rigs}, art)
	})
}
