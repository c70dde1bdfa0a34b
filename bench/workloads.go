package main

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/search"
	"repro/internal/sim"
)

const (
	// parallel sizes every load: 2 workers, 2 service clients. The
	// reference host has 2 CPUs.
	parallel = 2

	sizeFull = "full"
	// sizeTiny shrinks every workload for the smoke test.
	sizeTiny = "tiny"
)

// workload is one named set of inputs. run executes one repetition; with
// a tracer it is the traced re-execution, otherwise the untraced
// measurement.
type workload struct {
	name string
	run  func(e *env, tr *tracer) (*outcome, error)
}

// workloads are the benchmark's workloads in the order -workload all runs
// them.
var workloads = []workload{
	// Frontier search at budget 48: every candidate builds its own
	// eviction sets, so the offline build dominates. Sharing offline work
	// across candidates must show here.
	{name: "search", run: runSearch},
	// sens_defense_noise at 32 trials x 12 cells: a handful of builds
	// amortized over 384 trials, so the measure phase and rig adoption
	// dominate. Build sharing should not move it.
	{name: "sweep_measure", run: cli(sweepMeasureJob)},
	// Every registry experiment at 1 trial: monolithic, perfsim-only and
	// long online experiments. The longest trial sets the makespan, so
	// scheduling and imbalance show here.
	{name: "registry", run: cli(registryJob)},
	// fig10 at paper scale, 4 trials: one 20-way 8-slice build with 20 MB
	// snapshots guards paper-scale paths against tuning to the 8-way demo
	// machine.
	{name: "paper_offline", run: cli(paperOfflineJob)},
	// experimentd on loopback with 2 closed-loop clients x 3 jobs: the
	// only workload that journals and persists artifacts to disk.
	{name: "service", run: runService},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runnerJob is one call into runner.New(cfg): a selection of experiments,
// or a sweep when sel is nil.
type runnerJob struct {
	sel   []experiments.Experiment
	sweep experiments.Sweep
	job   runner.Job
}

func (j runnerJob) units() int {
	if j.sel == nil {
		return j.sweep.Grid.Size()
	}
	return len(j.sel)
}

// run executes the job warm on parallel workers with obs as a sink. With a
// tracer, every experiments-layer call is timed under a runner span with
// ID spanID, and store is the artifact store the run uses.
func (j runnerJob) run(tr *tracer, spanID, parent string, store *experiments.ArtifactStore, obs *observer) (reportWriter, error) {
	r := runner.New(runner.Config{Parallel: parallel, Warm: true, Store: store, Sinks: []runner.CellSink{obs}})
	var rep reportWriter
	call := func() error {
		if j.sel == nil {
			sw := j.sweep
			if tr != nil {
				sw = tr.wrapSweep(sw, spanID, j.job)
			}
			sr, err := r.RunSweep(sw, j.job)
			if err != nil {
				return err
			}
			rep = sr
			return nil
		}
		sel := j.sel
		if tr != nil {
			sel = tr.wrapExperiments(sel, spanID, j.job)
		}
		er, err := r.Run(sel, j.job)
		if err != nil {
			return err
		}
		rep = er
		return nil
	}
	if tr == nil {
		return rep, call()
	}
	err := tr.span(spanID, "runner", parent, call)
	return rep, err
}

// cli turns a runner job into a workload: one batch job with one caller,
// the way cmd/experiments runs it.
func cli(build func(e *env) (runnerJob, error)) func(*env, *tracer) (*outcome, error) {
	return func(e *env, tr *tracer) (*outcome, error) {
		j, err := build(e)
		if err != nil {
			return nil, err
		}
		var store *experiments.ArtifactStore
		if tr != nil {
			store = experiments.NewArtifactStore()
		}
		if !e.dispatch() {
			return nil, nil
		}
		obs := &observer{start: e.dispatchAt}
		rep, err := j.run(tr, "runner", e.name, store, obs)
		if err != nil {
			return nil, err
		}
		wall := since(e.dispatchAt)
		o := &outcome{wall: wall, firstEvent: obs.first, jobP50: wall, attempted: obs.n, failed: obs.failed}
		if tr != nil {
			o.layers = runnerLayers(obs.walls, wall)
			o.layers["store.builds"] = float64(store.Builds())
			o.layers["store.builds_per_unit"] = float64(store.Builds()) / float64(j.units())
		}
		o.report, err = encode(tr, e.name, rep, o.layers)
		return o, err
	}
}

func sweepMeasureJob(e *env) (runnerJob, error) {
	sw, ok := experiments.SweepByID("sens_defense_noise")
	if !ok {
		return runnerJob{}, fmt.Errorf("no sweep sens_defense_noise")
	}
	trials := 32
	if e.tiny() {
		sw.Grid = scenario.Grid{
			scenario.DefenseAxis("none"),
			{Name: scenario.AxisNoiseRate, Values: []float64{20_000}},
		}
		trials = 2
	}
	return runnerJob{sweep: sw, job: runner.Job{Scale: experiments.Demo, Seed: e.seed, Trials: trials}}, nil
}

func registryJob(e *env) (runnerJob, error) {
	sel := experiments.All()
	if e.tiny() {
		var err error
		if sel, err = byIDs("fig5", "fig7", "table2", "fig15"); err != nil {
			return runnerJob{}, err
		}
	}
	return runnerJob{sel: sel, job: runner.Job{Scale: experiments.Demo, Seed: e.seed, Trials: 1}}, nil
}

func paperOfflineJob(e *env) (runnerJob, error) {
	sel, err := byIDs("fig10")
	scale := experiments.Paper
	if e.tiny() {
		scale = experiments.Demo
	}
	return runnerJob{sel: sel, job: runner.Job{Scale: scale, Seed: e.seed, Trials: 4}}, err
}

func byIDs(ids ...string) ([]experiments.Experiment, error) {
	sel := make([]experiments.Experiment, len(ids))
	for i, id := range ids {
		ex, ok := experiments.ByID(id)
		if !ok {
			return nil, fmt.Errorf("no experiment %s", id)
		}
		sel[i] = ex
	}
	return sel, nil
}

func searchBudget(e *env) int {
	if e.tiny() {
		return 2
	}
	return 48
}

// runSearch runs search.Run untraced. Traced, it replays the untraced
// report's candidates instead (see replaySearch).
func runSearch(e *env, tr *tracer) (*outcome, error) {
	if tr != nil {
		return traceSearch(e, tr)
	}
	if !e.dispatch() {
		return nil, nil
	}
	obs := &observer{start: e.dispatchAt}
	rep, err := search.Run(search.Options{
		Scale:  experiments.Demo,
		Seed:   e.seed,
		Budget: searchBudget(e),
		Runner: runner.Config{Parallel: parallel, Warm: true, Sinks: []runner.CellSink{obs}},
	})
	if err != nil {
		return nil, err
	}
	wall := since(e.dispatchAt)
	o := &outcome{wall: wall, firstEvent: obs.first, jobP50: wall, attempted: obs.n, failed: obs.failed}
	o.report, err = encode(nil, "", rep, nil)
	return o, err
}

func traceSearch(e *env, tr *tracer) (*outcome, error) {
	var rep search.Report
	if err := json.Unmarshal(e.baseline, &rep); err != nil {
		return nil, fmt.Errorf("search baseline report: %w", err)
	}
	store := experiments.NewArtifactStore()
	if !e.dispatch() {
		return nil, nil
	}
	obs := &observer{start: e.dispatchAt}
	problems, err := replaySearch(tr, &rep, "runner", e.name, store, obs)
	if err != nil {
		return nil, err
	}
	wall := since(e.dispatchAt)
	o := &outcome{wall: wall, firstEvent: obs.first, jobP50: wall, attempted: obs.n, failed: obs.failed, problems: problems}
	o.layers = runnerLayers(obs.walls, wall)
	o.layers["store.builds"] = float64(store.Builds())
	o.layers["store.builds_per_unit"] = float64(store.Builds()) / float64(max(len(rep.Candidates), 1))
	o.layers["search.candidates"] = float64(rep.Evaluated)
	o.layers["search.generations"] = float64(rep.Generations)
	o.layers["search.candidates_per_s"] = float64(rep.Evaluated) / wall
	o.report, err = encode(tr, e.name, &rep, o.layers)
	return o, err
}

// replaySearch re-evaluates a search report's candidates under timing
// wrappers. search.Run builds its candidate experiments internally, out of
// a wrapper's reach, so the replay builds the same experiments the way it
// does: DefenseCandidateExperiment at the default evaluation budget with
// the search's derived perf seed, run as one RunNamed("search",
// "frontier") batch in coarse-grid order (the order search.Run submits a
// single-generation search in). It returns a problem for every replayed
// value that differs from the report's.
func replaySearch(tr *tracer, rep *search.Report, spanID, parent string, store *experiments.ArtifactStore, obs *observer) ([]string, error) {
	scale := experiments.Demo
	if rep.Scale == experiments.Paper.String() {
		scale = experiments.Paper
	}
	order := map[string]int{}
	for i, p := range search.Grid() {
		order[p.ID()] = i
	}
	cands := append([]search.Candidate(nil), rep.Candidates...)
	sort.SliceStable(cands, func(i, j int) bool {
		oi, iok := order[cands[i].ID]
		oj, jok := order[cands[j].ID]
		if iok != jok {
			return iok
		}
		return iok && oi < oj
	})
	eval := experiments.DefaultEvalBudget(scale)
	perfSeed := sim.DeriveSeed(rep.Seed, "search/perf")
	exps := make([]experiments.Experiment, len(cands))
	for i, c := range cands {
		d, err := c.Params.Defense()
		if err != nil {
			return nil, err
		}
		exps[i] = experiments.DefenseCandidateExperiment(c.ID, d, eval, perfSeed)
	}
	job := runner.Job{Scale: scale, Seed: rep.Seed, Trials: 1}
	r := runner.New(runner.Config{Parallel: parallel, Warm: true, Store: store, Sinks: []runner.CellSink{obs}})
	var out *runner.Report
	err := tr.span(spanID, "runner", parent, func() error {
		var err error
		out, err = r.RunNamed("search", "frontier", tr.wrapExperiments(exps, spanID, job), job)
		return err
	})
	if err != nil {
		return nil, err
	}
	byID := make(map[string]search.Candidate, len(cands))
	for _, c := range cands {
		byID[c.ID] = c
	}
	var problems []string
	for _, er := range out.Experiments {
		c := byID[er.ID]
		if er.OK != c.OK || len(er.Metrics) != len(c.Metrics) {
			problems = append(problems, fmt.Sprintf("search replay: candidate %s: ok %v with %d metrics, report has ok %v with %d",
				er.ID, er.OK, len(er.Metrics), c.OK, len(c.Metrics)))
			continue
		}
		for _, m := range er.Metrics {
			if len(m.Values) == 0 || m.Values[0] != c.Metrics[m.Name] {
				problems = append(problems, fmt.Sprintf("search replay: candidate %s: %s = %v, report has %v",
					er.ID, m.Name, m.Values, c.Metrics[m.Name]))
			}
		}
	}
	return problems, nil
}
