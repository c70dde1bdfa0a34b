package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// This file is the traced run's only view into the program: it wraps the
// public Prepare, Measure and Run functions of the experiments the runner
// executes and records a span around each call. The program itself is
// not instrumented.

// Span is one timed call. Start and End are seconds since the trace
// began; Self is the duration minus the part of it child spans cover.
type Span struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	// Unit is the experiment or sweep cell of a trial and its calls.
	Unit  string  `json:"unit,omitempty"`
	Start float64 `json:"start_s"`
	End   float64 `json:"end_s"`
	Self  float64 `json:"self_s"`
}

func (s Span) dur() float64 { return s.End - s.Start }

// trialName is a trial's unit and index.
type trialName struct {
	unit  string
	trial int
}

// interval is an open prepare call waiting for the Measure that consumes
// its artifact.
type interval struct{ start, end float64 }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0 time.Time

	mu       sync.Mutex
	spans    []Span
	trials   map[int64]trialName // by the seed the runner hands the trial
	prepared map[*experiments.Artifact]interval
	orphans  int
}

func newTracer() *tracer {
	return &tracer{
		t0:       clock(),
		trials:   make(map[int64]trialName),
		prepared: make(map[*experiments.Artifact]interval),
	}
}

func (tr *tracer) now() float64 { return since(tr.t0) }

func (tr *tracer) add(s Span) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// span times f as one span.
func (tr *tracer) span(id, name, parent string, f func() error) error {
	start := tr.now()
	err := f()
	tr.add(Span{ID: id, Name: name, Parent: parent, Start: start, End: tr.now()})
	return err
}

// trialSpan names the span of the trial the runner handed seed: its
// runner span, then "unit/trial", so one trace can hold several runner
// calls over the same units.
func (tr *tracer) trialSpan(parent string, seed int64) Span {
	tr.mu.Lock()
	n, ok := tr.trials[seed]
	tr.mu.Unlock()
	if !ok {
		n = trialName{unit: fmt.Sprintf("seed%d", seed), trial: -1}
	}
	return Span{ID: fmt.Sprintf("%s/%s/%d", parent, n.unit, n.trial), Name: "trial", Parent: parent, Unit: n.unit}
}

func (tr *tracer) nameTrials(unit string, trials int, seed func(trial int) int64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for t := 0; t < trials; t++ {
		tr.trials[seed(t)] = trialName{unit, t}
	}
}

// afterPrepare files a finished Prepare until its Measure arrives: the
// runner calls them back to back on one worker, and the artifact pointer
// is what links the two. A failed Prepare never reaches Measure, so its
// span is recorded at once under the runner span.
func (tr *tracer) afterPrepare(parent, unit string, art *experiments.Artifact, start float64, err error) {
	end := tr.now()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if err != nil || art == nil {
		tr.orphans++
		tr.spans = append(tr.spans, Span{ID: fmt.Sprintf("%s/%s/prepare#%d", parent, unit, tr.orphans),
			Name: "prepare", Parent: parent, Unit: unit, Start: start, End: end})
		return
	}
	tr.prepared[art] = interval{start, end}
}

// afterMeasure records one phased trial: the trial span from its Prepare's
// start to its Measure's end, with both calls as children.
func (tr *tracer) afterMeasure(parent string, seed int64, art *experiments.Artifact, start float64) {
	end := tr.now()
	trial := tr.trialSpan(parent, seed)
	trial.Start, trial.End = start, end
	child := func(name string, start, end float64) Span {
		return Span{ID: trial.ID + "/" + name, Name: name, Parent: trial.ID, Unit: trial.Unit, Start: start, End: end}
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if p, ok := tr.prepared[art]; ok {
		delete(tr.prepared, art)
		trial.Start = p.start
		tr.spans = append(tr.spans, child("prepare", p.start, p.end))
	}
	tr.spans = append(tr.spans, trial, child("measure", start, end))
}

// afterRun records one single-shot trial and its Run call.
func (tr *tracer) afterRun(parent string, seed int64, start float64) {
	end := tr.now()
	trial := tr.trialSpan(parent, seed)
	trial.Start, trial.End = start, end
	tr.add(trial)
	tr.add(Span{ID: trial.ID + "/run", Name: "run", Parent: trial.ID, Unit: trial.Unit, Start: start, End: end})
}

// wrapExperiments returns sel with every call into the experiments layer
// timed under the runner span parent. It must see the job the runner will
// run, because trial IDs are recovered from the runner's public seed
// derivation.
func (tr *tracer) wrapExperiments(sel []experiments.Experiment, parent string, job runner.Job) []experiments.Experiment {
	out := make([]experiments.Experiment, len(sel))
	for i, e := range sel {
		tr.nameTrials(e.ID, max(job.Trials, 1), func(t int) int64 { return runner.TrialSeed(job.Seed, e.ID, t) })
		w := e
		if e.Phased() {
			w.Prepare = func(ctx experiments.PrepareCtx) (*experiments.Artifact, error) {
				start := tr.now()
				art, err := e.Prepare(ctx)
				tr.afterPrepare(parent, e.ID, art, start, err)
				return art, err
			}
			w.Measure = func(ctx experiments.MeasureCtx, art *experiments.Artifact) (experiments.Result, error) {
				start := tr.now()
				res, err := e.Measure(ctx, art)
				tr.afterMeasure(parent, ctx.Seed, art, start)
				return res, err
			}
		} else {
			w.Run = func(scale experiments.Scale, seed int64) (experiments.Result, error) {
				start := tr.now()
				res, err := e.Run(scale, seed)
				tr.afterRun(parent, seed, start)
				return res, err
			}
		}
		out[i] = w
	}
	return out
}

// wrapSweep is wrapExperiments for a sweep: units are grid cells.
func (tr *tracer) wrapSweep(sw experiments.Sweep, parent string, job runner.Job) experiments.Sweep {
	for _, cell := range sw.Grid.Cells() {
		key := cell.Key()
		tr.nameTrials(key, max(job.Trials, 1), func(t int) int64 { return runner.CellSeed(job.Seed, sw.ID, key, t) })
	}
	w := sw
	if sw.Phased() {
		w.Prepare = func(ctx experiments.PrepareCtx, cell scenario.Cell) (*experiments.Artifact, error) {
			start := tr.now()
			art, err := sw.Prepare(ctx, cell)
			tr.afterPrepare(parent, cell.Key(), art, start, err)
			return art, err
		}
		w.Measure = func(ctx experiments.MeasureCtx, art *experiments.Artifact, cell scenario.Cell) (experiments.Result, error) {
			start := tr.now()
			res, err := sw.Measure(ctx, art, cell)
			tr.afterMeasure(parent, ctx.Seed, art, start)
			return res, err
		}
	} else {
		w.Run = func(scale experiments.Scale, seed int64, cell scenario.Cell) (experiments.Result, error) {
			start := tr.now()
			res, err := sw.Run(scale, seed, cell)
			tr.afterRun(parent, seed, start)
			return res, err
		}
	}
	return w
}

// finish computes self times and returns the spans in start order.
func (tr *tracer) finish() []Span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	children := make(map[string][]Span)
	for _, s := range tr.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make([]Span, len(tr.spans))
	for i, s := range tr.spans {
		s.Self = s.dur() - covered(s, children[s.ID])
		out[i] = s
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's. Children overlap when the runner's workers run trials
// side by side.
func covered(parent Span, kids []Span) float64 {
	iv := make([]interval, 0, len(kids))
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e > s {
			iv = append(iv, interval{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].start < iv[j].start })
	total, reach := 0.0, parent.Start
	for _, v := range iv {
		if v.end <= reach {
			continue
		}
		total += v.end - max(v.start, reach)
		reach = v.end
	}
	return total
}

// perfsimUnits are the registry experiments whose Run is the perfsim cost
// model (the paper's Figs. 14-16).
var perfsimUnits = map[string]bool{"fig14": true, "fig15": true, "fig16": true}

// layerTimes sums the spans of each experiments-layer call.
func layerTimes(spans []Span) map[string]float64 {
	m := map[string]float64{
		"prepare.calls": 0, "prepare.s": 0, "measure.calls": 0, "measure.s": 0,
		"run.calls": 0, "run.s": 0, "perfsim.s": 0,
	}
	var trial float64
	for _, s := range spans {
		switch s.Name {
		case "trial":
			trial += s.dur()
		case "prepare", "measure", "run":
			m[s.Name+".calls"]++
			m[s.Name+".s"] += s.dur()
			if s.Name == "run" && perfsimUnits[s.Unit] {
				m["perfsim.s"] += s.dur()
			}
		}
	}
	for _, name := range []string{"prepare", "measure"} {
		m[name+".share"] = 0
		if trial > 0 {
			m[name+".share"] = m[name+".s"] / trial
		}
	}
	return m
}
