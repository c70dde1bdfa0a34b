package runner

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
)

// Config is the execution environment a Runner applies to every job it
// runs: pool width, artifact reuse, checkpointing, and progress output.
// It deliberately excludes what is being measured — that is the Job — so
// one configured Runner can execute many jobs, and so the fields that can
// change report bytes (Job) are separated from the ones that must not
// (Config).
type Config struct {
	// Parallel is the worker-pool width; <= 0 means GOMAXPROCS.
	Parallel int
	// Warm enables offline-artifact reuse for phase-split experiments:
	// one shared content-addressed store deduplicates Prepare work across
	// trials (and, in RunSweep, across grid cells). A cold run (the zero
	// value) rebuilds every artifact per trial. Warm and cold runs of the
	// same job produce byte-identical reports; warm is purely a wall-clock
	// optimization.
	Warm bool
	// Store, when non-nil, is a caller-owned artifact store: the
	// experiment service hands every warm job the same store so
	// concurrent jobs deduplicate offline work, and cmd/experiments
	// passes a disk-backed store (experiments.NewDiskArtifactStore) for
	// -artifact-dir so repeated invocations skip offline phases
	// entirely. Requires Warm; nil means a private in-memory store. Never
	// changes report bytes.
	Store *experiments.ArtifactStore
	// Pool, when non-nil, bounds concurrent trial execution across every
	// runner sharing it (see Pool). Parallel still sizes this job's
	// worker set; the pool gates how many of those workers may compute at
	// once machine-wide.
	Pool *Pool
	// CheckpointDir, when non-empty, journals every completed (unit,
	// trial) outcome to a file under the directory, content-addressed by
	// the job identity (kind, id, scale, seed, trials — the same identity
	// discipline that keys artifacts). The journal is what Resume reads.
	CheckpointDir string
	// Resume loads the job's journal before executing and serves already-
	// completed (unit, trial) outcomes from it instead of re-running them.
	// A resumed run is byte-identical to an uninterrupted one: outcomes
	// land in the same pre-assigned slots whether executed or replayed.
	// Corrupt or torn journal lines are skipped — their cells simply
	// re-run (and re-journal), mirroring the artifact store's healing.
	// Requires CheckpointDir.
	Resume bool
	// TrialBudget, when > 0, bounds how many trials this invocation
	// executes (replayed checkpoint outcomes are free). If work remains
	// when the budget is spent, the run stops after journaling what it
	// did and returns ErrBudget — a later Resume continues from there.
	// Requires CheckpointDir: a budgeted run without a journal would
	// simply discard its work. 0 means unlimited; Validate rejects a
	// negative budget.
	TrialBudget int
	// NoRigReuse disables the per-worker rig pools that recycle cloned
	// machines across trials (see experiments.RigPool). The zero value —
	// pooling on — is correct for every workload; the flag exists for
	// debugging and for the equivalence tests that pin pooled == unpooled
	// report bytes. Never changes report bytes.
	NoRigReuse bool
	// Progress, when non-nil, receives progress output (typically
	// os.Stderr): a rate-limited done/total+ETA summary line by default,
	// or one line per completed trial when Verbose is set.
	Progress io.Writer
	// Verbose restores the historical one-line-per-trial progress output.
	Verbose bool
	// Sinks are additional observers of the outcome stream, invoked for
	// every (unit, trial) outcome — executed and replayed alike — after
	// the built-in collector and checkpoint sinks. A sink error aborts
	// the run.
	Sinks []CellSink
}

// Job names one unit of work: what scale to run at, which root seed, and
// how many trials. Everything in a Job participates in the determinism
// contract — report bytes are a pure function of (selection or sweep,
// Job) — and, together with the selection identity, it is the checkpoint
// journal's content address.
type Job struct {
	// Scale is the machine scale every trial runs at.
	Scale experiments.Scale
	// Seed is the root seed; per-trial seeds are derived from it.
	Seed int64
	// Trials is the number of trials per experiment or cell (minimum 1).
	Trials int
}

// Runner executes jobs under one Config.
type Runner struct {
	cfg Config
}

// New returns a Runner that executes jobs under cfg.
func New(cfg Config) *Runner { return &Runner{cfg: cfg} }

// ErrBudget reports that a TrialBudget run stopped with work remaining.
// The completed trials are journaled; re-running with Resume continues.
var ErrBudget = errors.New("trial budget exhausted before the job completed")

// Validate reports the first pair of fields that contradict each other.
// Run and RunSweep call it before any work; front ends call it before
// they open any output.
func (c Config) Validate() error {
	switch {
	case c.Store != nil && !c.Warm:
		return fmt.Errorf("runner: shared store requires warm mode")
	case c.Resume && c.CheckpointDir == "":
		return fmt.Errorf("runner: resume requires a checkpoint dir")
	case c.TrialBudget < 0:
		return fmt.Errorf("runner: trial budget must be >= 0 (0 = unlimited)")
	case c.TrialBudget > 0 && c.CheckpointDir == "":
		return fmt.Errorf("runner: trial budget requires a checkpoint dir")
	}
	return nil
}

// newStore builds the artifact store a validated config describes: the
// caller's store, nil for cold runs, in-memory otherwise.
func (c Config) newStore() *experiments.ArtifactStore {
	switch {
	case c.Store != nil:
		return c.Store
	case !c.Warm:
		return nil
	}
	return experiments.NewArtifactStore()
}

// execUnit is one schedulable unit of a job: an experiment (key = its ID)
// or a sweep cell (key = the cell's canonical coordinate string). The
// label is what progress output calls it. holder, when non-nil, is the
// unit's claim on the artifacts its trials prepare; execute releases it
// once the unit's last trial has been measured.
type execUnit struct {
	key    string
	label  string
	holder *experiments.ArtifactHolder
	run    func(trial int, rigs *experiments.RigLease) (experiments.Result, error)
}

// execute is the streaming executor both Run and RunSweep share. It
// replays checkpointed outcomes, fans the remaining (unit, trial) pairs
// out over the worker pool, and hands every outcome — replayed and
// executed alike — to the sink stack one at a time: the collector (which
// reassembles the deterministic result matrix), the checkpoint journal,
// any Config.Sinks, and the progress printer. Sinks never run
// concurrently; workers only compute.
func (r *Runner) execute(ident checkpointIdentity, units []execUnit, trials int) ([][]TrialOutcome, experiments.RigPoolStats, error) {
	parallel := r.cfg.Parallel
	if parallel <= 0 {
		parallel = defaultParallel()
	}

	keys := make([]string, len(units))
	labels := make(map[string]string, len(units))
	for i, u := range units {
		keys[i] = u.key
		labels[u.key] = u.label
	}
	coll := newCollector(keys, trials)
	// Units the run stops short of (a spent budget, a sink error) still
	// let go of their artifacts; releasing a released holder is a no-op.
	defer func() {
		for _, u := range units {
			u.holder.Release()
		}
	}()

	sinks := multiSink{coll}
	var replay map[outcomeKey]TrialOutcome
	if r.cfg.CheckpointDir != "" {
		ckpt, loaded, err := openCheckpoint(r.cfg.CheckpointDir, ident, r.cfg.Resume)
		if err != nil {
			return nil, experiments.RigPoolStats{}, err
		}
		defer ckpt.Close()
		replay = loaded
		sinks = append(sinks, ckpt)
	}
	sinks = append(sinks, r.cfg.Sinks...)
	var prog progressSink
	if r.cfg.Progress != nil {
		total := len(units) * trials
		if r.cfg.Verbose {
			prog = newVerbosePrinter(r.cfg.Progress, total, trials, labels)
		} else {
			prog = newThrottledPrinter(r.cfg.Progress, total)
		}
		sinks = append(sinks, prog)
	}

	var sinkErr error
	put := func(o TrialOutcome) {
		if sinkErr == nil {
			sinkErr = sinks.Put(o)
		}
	}

	// Serve checkpointed outcomes first and collect the remaining work in
	// unit-major order — the order a budgeted run truncates, so repeated
	// budgeted invocations sweep the grid front to back.
	type slot struct{ ui, ti int }
	var pending []slot
	for ui, u := range units {
		for ti := 0; ti < trials; ti++ {
			if o, ok := replay[outcomeKey{unit: u.key, trial: ti}]; ok {
				o.Resumed = true
				put(o)
			} else {
				pending = append(pending, slot{ui, ti})
			}
		}
	}
	if sinkErr != nil {
		return nil, experiments.RigPoolStats{}, sinkErr
	}

	remaining := 0
	if r.cfg.TrialBudget > 0 && len(pending) > r.cfg.TrialBudget {
		remaining = len(pending) - r.cfg.TrialBudget
		pending = pending[:r.cfg.TrialBudget]
	}

	// left counts each unit's trials still to measure in this run; the
	// worker that measures the last one releases the unit's holder, so the
	// store keeps only the machines of units in flight.
	left := make([]atomic.Int32, len(units))
	for _, s := range pending {
		left[s.ui].Add(1)
	}

	jobs := make(chan slot)
	outcomes := make(chan TrialOutcome, parallel)
	stop := make(chan struct{})
	// Each worker files its pool's counts in its own slot before exiting;
	// the drain loop below ends only after every worker has.
	rigStats := make([]experiments.RigPoolStats, parallel)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker owns a rig pool: trials it runs back to back
			// recycle cloned machines instead of constructing them (see
			// experiments.RigPool). Per-worker pools need no cross-worker
			// coordination and keep reuse order deterministic per worker;
			// pooling never changes report bytes, so sharing wider would
			// buy nothing but contention.
			var rigs *experiments.RigLease
			if !r.cfg.NoRigReuse {
				pool := experiments.NewRigPool()
				defer func() { rigStats[w] = pool.Stats() }()
				rigs = pool.Lease()
			}
			for s := range jobs {
				u := units[s.ui]
				// A shared pool gates only the compute, not the streaming:
				// the slot is held for exactly one trial's execution.
				if r.cfg.Pool != nil {
					r.cfg.Pool.acquire()
				}
				start := time.Now()
				res, err := u.run(s.ti, rigs)
				// Rigs return to the pool whether the trial finished,
				// errored, or panicked (runTrial converted it): the next
				// adoption overwrites every mutable field, so a poisoned
				// rig heals on reuse.
				rigs.Release()
				if left[s.ui].Add(-1) == 0 {
					u.holder.Release()
				}
				wall := time.Since(start)
				if r.cfg.Pool != nil {
					r.cfg.Pool.release()
				}
				outcomes <- TrialOutcome{
					Unit:   u.key,
					Trial:  s.ti,
					Result: res,
					Err:    err,
					Wall:   wall,
				}
			}
		}()
	}
	go func() {
		defer close(jobs)
		for _, s := range pending {
			select {
			case jobs <- s:
			case <-stop:
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(outcomes)
	}()
	stopped := false
	for o := range outcomes {
		put(o)
		if sinkErr != nil && !stopped {
			stopped = true
			close(stop)
		}
	}
	if sinkErr != nil {
		return nil, experiments.RigPoolStats{}, sinkErr
	}
	if prog != nil {
		prog.Finish()
	}
	if remaining > 0 {
		return nil, experiments.RigPoolStats{}, fmt.Errorf("runner: %w (%d trial(s) remaining; re-run with resume)", ErrBudget, remaining)
	}
	var rigs experiments.RigPoolStats
	for _, s := range rigStats {
		rigs = rigs.Add(s)
	}
	return coll.outcomes, rigs, nil
}

// Run executes every selected experiment for job.Trials trials and
// aggregates the outcome. The returned error only reports harness-level
// problems (empty selection, sink failure, spent budget); individual
// experiment failures are recorded per experiment in the Report so one
// broken artifact does not discard the rest of a run.
func (r *Runner) Run(selected []experiments.Experiment, job Job) (*Report, error) {
	return r.RunNamed("experiments", "", selected, job)
}

// RunNamed is Run under a caller-chosen journal identity: kind (and an
// optional id distinguishing runs of the same kind) name the checkpoint
// journal instead of the default "experiments" identity. Drivers that
// issue several Run calls against one logical journal — the frontier
// search submits one batch per generation — use a stable (kind, id) and
// Resume=true on every call after the first, so an interrupted run
// replays every completed unit regardless of which batch it arrived in.
// Unit outcomes must be batch-independent for this to be sound, exactly
// as experiment outcomes are selection-independent under Run.
func (r *Runner) RunNamed(kind, id string, selected []experiments.Experiment, job Job) (*Report, error) {
	if err := r.cfg.Validate(); err != nil {
		return nil, err
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("runner: no experiments selected")
	}
	seen := make(map[string]bool, len(selected))
	for _, e := range selected {
		if !e.Phased() {
			return nil, fmt.Errorf("runner: experiment %q has no Prepare/Measure pair", e.ID)
		}
		// The ID is the unit key: a repeat would share one outcome slot
		// and leave the other entry's aggregate empty.
		if seen[e.ID] {
			return nil, fmt.Errorf("runner: experiment %q selected twice", e.ID)
		}
		seen[e.ID] = true
	}
	if job.Trials < 1 {
		job.Trials = 1
	}
	store := r.cfg.newStore()
	units := make([]execUnit, len(selected))
	for i, e := range selected {
		e := e
		// Each experiment holds its own machines: its offline seed is its
		// own, so no other unit of the job can use them.
		holder := store.NewHolder()
		pctx := experiments.PrepareCtx{Scale: job.Scale, Seed: OfflineSeed(job.Seed, e.ID), Store: store, Holder: holder}
		units[i] = execUnit{
			key:    e.ID,
			label:  e.ID,
			holder: holder,
			run: func(trial int, rigs *experiments.RigLease) (experiments.Result, error) {
				return runTrial(e.Prepare, e.Measure, pctx, TrialSeed(job.Seed, e.ID, trial), rigs)
			},
		}
	}
	// Experiment outcomes are selection-independent (unit keys are
	// experiment IDs, trial seeds derive from them), so the journal
	// identity deliberately omits the selection: a full-registry journal
	// resumes a single-experiment run and vice versa.
	ident := checkpointIdentity{
		Kind:   kind,
		ID:     id,
		Scale:  job.Scale.String(),
		Seed:   job.Seed,
		Trials: job.Trials,
	}
	outcomes, rigs, err := r.execute(ident, units, job.Trials)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Schema: SchemaVersion,
		Scale:  job.Scale.String(),
		Seed:   job.Seed,
		Trials: job.Trials,
		Rigs:   rigs,
	}
	for i, e := range selected {
		rep.Experiments = append(rep.Experiments, aggregate(e.ID, e.Short, outcomes[i]))
	}
	return rep, nil
}

// RunSweep executes every cell of the sweep's grid for job.Trials trials.
// Cell failures (including panics) are recorded per cell so one broken
// corner of the parameter space does not discard the rest of the curve.
func (r *Runner) RunSweep(sw experiments.Sweep, job Job) (*SweepReport, error) {
	if err := r.cfg.Validate(); err != nil {
		return nil, err
	}
	if !sw.Phased() {
		return nil, fmt.Errorf("runner: sweep %q has no Prepare/Measure pair", sw.ID)
	}
	if err := sw.Grid.Validate(); err != nil {
		return nil, fmt.Errorf("runner: sweep %q: %w", sw.ID, err)
	}
	if job.Trials < 1 {
		job.Trials = 1
	}
	store := r.cfg.newStore()
	// The cells share machines by design (one SweepOfflineSeed for the
	// whole grid), so the sweep, not a cell, holds them until it ends.
	holder := store.NewHolder()
	defer holder.Release()
	pctx := experiments.PrepareCtx{Scale: job.Scale, Seed: SweepOfflineSeed(job.Seed, sw.ID), Store: store, Holder: holder}
	cells := sw.Grid.Cells()
	units := make([]execUnit, len(cells))
	for i, cell := range cells {
		cell := cell
		prepare := func(ctx experiments.PrepareCtx) (*experiments.Artifact, error) { return sw.Prepare(ctx, cell) }
		measure := func(ctx experiments.MeasureCtx, art *experiments.Artifact) (experiments.Result, error) {
			return sw.Measure(ctx, art, cell)
		}
		units[i] = execUnit{
			key:   cell.Key(),
			label: sw.ID + "[" + cell.Key() + "]",
			run: func(trial int, rigs *experiments.RigLease) (experiments.Result, error) {
				return runTrial(prepare, measure, pctx, CellSeed(job.Seed, sw.ID, cell.Key(), trial), rigs)
			},
		}
	}
	ident := checkpointIdentity{
		Kind:   "sweep",
		ID:     sw.ID,
		Scale:  job.Scale.String(),
		Seed:   job.Seed,
		Trials: job.Trials,
	}
	outcomes, _, err := r.execute(ident, units, job.Trials)
	if err != nil {
		return nil, err
	}
	rep := &SweepReport{
		Schema: SweepSchemaVersion,
		Sweep:  sw.ID,
		Title:  sw.Short,
		Scale:  job.Scale.String(),
		Seed:   job.Seed,
		Trials: job.Trials,
		Axes:   sw.Grid,
	}
	for ci, cell := range cells {
		agg := aggregate(cell.Key(), sw.Short, outcomes[ci])
		rep.Cells = append(rep.Cells, CellReport{
			Key:     cell.Key(),
			Coords:  cell.Coords(),
			Labels:  cell.Labels(),
			OK:      agg.OK,
			Error:   agg.Error,
			Metrics: agg.Metrics,
			Wall:    agg.Wall,
		})
	}
	return rep, nil
}
