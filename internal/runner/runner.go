// Package runner executes the experiment registry as a concurrent,
// multi-trial sweep. It fans experiments out over a worker pool, runs
// each experiment as T trials with decorrelated per-trial seeds
// (sim.DeriveSeed over "expID/trialN" labels), and reduces the
// per-trial metric values into mean / stddev / min-max summaries.
// Every experiment and sweep cell is a Prepare/Measure pair, and its
// trials share one prepared machine (see runTrial).
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

// OfflineSeed derives the offline-phase seed for an experiment. It is
// trial 0's seed: every trial prepares (or reuses) the machine trial 0
// would build, which keeps a single-trial run byte-identical to the
// single-seed Run form — the property the golden files pin.
func OfflineSeed(root int64, expID string) int64 {
	return TrialSeed(root, expID, 0)
}

// trialOutcome is one (experiment, trial) slot of the result matrix.
type trialOutcome struct {
	result experiments.Result
	err    error
	wall   time.Duration
}

// runTrial executes one (unit, trial) cell: prepare the unit's offline
// machines under its offline seed (against the shared store when warm),
// then measure them under the trial seed. Experiments and sweep cells
// both come through here; RunSweep binds the cell into prepare and
// measure. Trial 0 of an experiment is definitionally identical to
// Run(TrialSeed(root, id, 0)) — OfflineSeed is trial 0's seed and Run is
// Prepare∘Measure — which is what keeps the golden files valid. Trials
// >= 1 measure trial 0's machine under re-derived ambient randomness by
// design ("prepare once, measure many"); that is a semantic choice, not
// an optimization, and holds in warm and cold mode alike — cold merely
// rebuilds the same trial-0 machine each time instead of caching it. An
// experiment with an empty prepare recomputes everything in Measure, so
// each of its trials is its whole body under that trial's seed.
//
// A panic in either phase becomes an ordinary trial error, so one broken
// experiment cell fails its report entry instead of taking down the
// whole process.
func runTrial(prepare experiments.PrepareFunc, measure experiments.MeasureFunc, scale experiments.Scale, offlineSeed, seed int64, store *experiments.ArtifactStore, rigs *experiments.RigLease) (res experiments.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	art, err := prepare(experiments.PrepareCtx{Scale: scale, Seed: offlineSeed, Store: store})
	if err != nil {
		return experiments.Result{}, err
	}
	return measure(experiments.MeasureCtx{Scale: scale, Seed: seed, Rigs: rigs}, art)
}
