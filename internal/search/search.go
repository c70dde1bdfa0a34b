// Package search is the defense design-space explorer: where the paper
// (and the matrix_defense experiment) evaluates a hand-picked menu of
// mitigations, this package asks the inverse question — which defense
// parameterizations and stacks are Pareto-optimal on leakage versus
// performance overhead. A two-phase driver (coarse grid seeding, then
// hill-climb refinement around the current frontier) scores each
// candidate with the shared matrix evaluator on warm pooled rig leases,
// and a Pareto module extracts the frontier and its hypervolume into a
// versioned report. Every candidate's outcome is a pure function of
// (params, scale, seed), independent of batch composition and worker
// count, so reports are byte-deterministic across -parallel widths and
// resumable from the runner's checkpoint journal mid-search.
package search

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/sim"
)

// SchemaVersion identifies the frontier report wire format.
const SchemaVersion = "packetchasing-frontier/v1"

// DefaultBudget is the default total candidate evaluations: the full
// coarse grid plus refinement headroom.
const DefaultBudget = 240

// DefaultEpsilon is the default ε-dominance slack on the overhead axis:
// the perfsim p99-delta resolution at demo workload sizes, so two
// overheads within half a percent read as a tie and leakage decides.
const DefaultEpsilon = 0.005

// JournalKind and JournalID are the identity Run journals its candidates
// under (runner.RunNamed). Anything that must name a search's checkpoint
// journal, such as the service's per-journal lock, names it with these.
const (
	JournalKind = "search"
	JournalID   = "frontier"
)

// maxGenerations caps the refinement rounds after the coarse grid.
const maxGenerations = 8

// Options configures one frontier search.
type Options struct {
	// Scale and Seed follow the runner's determinism contract: the
	// report is a pure function of (Scale, Seed, Budget, Epsilon). Each
	// candidate is measured under experiments.DefaultEvalBudget(Scale).
	Scale experiments.Scale
	Seed  int64
	// Budget caps total candidate evaluations; <= 0 selects
	// DefaultBudget. The anchors and as much of the coarse grid as fit
	// are evaluated first; the remainder funds refinement generations.
	Budget int
	// Epsilon is the overhead-axis dominance slack; 0 selects
	// DefaultEpsilon (use a tiny negative value for strict dominance).
	Epsilon float64
	// Runner configures execution (parallelism, warm store, rig pool,
	// checkpointing, sinks). When CheckpointDir is set, the search
	// journals under the identity (JournalKind, JournalID) and
	// every batch after the first resumes, so an interrupted search
	// replays completed candidates; Resume controls only whether the
	// first batch also loads a pre-existing journal.
	Runner runner.Config
}

// Candidate is one evaluated design point.
type Candidate struct {
	ID      string `json:"id"`
	Defense string `json:"defense"`
	Params  Params `json:"params"`
	OK      bool   `json:"ok"`
	Error   string `json:"error,omitempty"`
	// Leakage is the strongest calibrated attack's success probability;
	// Overhead is the perfsim Nginx p99 delta vs the undefended
	// baseline — the two frontier axes, both minimized.
	Leakage  float64 `json:"leakage"`
	Overhead float64 `json:"overhead"`
	// Metrics carries the full per-family measurement (chase/covert/
	// fingerprint values and calibration-health flags, throughput loss).
	Metrics    map[string]float64 `json:"metrics,omitempty"`
	OnFrontier bool               `json:"on_frontier"`
}

// Report is the versioned search outcome.
type Report struct {
	Schema      string  `json:"schema"`
	Scale       string  `json:"scale"`
	Seed        int64   `json:"seed"`
	Budget      int     `json:"budget"`
	Epsilon     float64 `json:"epsilon"`
	Evaluated   int     `json:"evaluated"`
	Generations int     `json:"generations"`
	// Hypervolume is the strict-dominance indicator at reference point
	// (1, 1) over the successful candidates.
	Hypervolume float64 `json:"hypervolume"`
	// Frontier is the ε-non-dominated set, cheapest first. Candidates
	// lists every evaluated point sorted by ID.
	Frontier   []Candidate `json:"frontier"`
	Candidates []Candidate `json:"candidates"`

	// Rigs sums the rig-pool counts of every batch (telemetry, never
	// serialized; see runner.Report.Rigs).
	Rigs experiments.RigPoolStats `json:"-"`
}

// Failed counts candidates whose evaluation errored.
func (r *Report) Failed() int {
	n := 0
	for _, c := range r.Candidates {
		if !c.OK {
			n++
		}
	}
	return n
}

// WriteJSON serializes the report as indented, newline-terminated JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteText renders the frontier for terminals.
func (r *Report) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "frontier search: %d candidates evaluated (%d failed), %d generations, eps=%g\n",
		r.Evaluated, r.Failed(), r.Generations, r.Epsilon)
	fmt.Fprintf(w, "hypervolume (ref 1,1): %.4f\n", r.Hypervolume)
	fmt.Fprintf(w, "%-24s %-40s %9s %9s\n", "candidate", "defense", "leakage", "p99 delta")
	for _, c := range r.Frontier {
		fmt.Fprintf(w, "%-24s %-40s %8.1f%% %+8.2f%%\n",
			c.ID, c.Defense, 100*c.Leakage, 100*c.Overhead)
	}
	return nil
}

// Run executes the search and builds the frontier report.
func Run(opts Options) (*Report, error) {
	if opts.Budget <= 0 {
		opts.Budget = DefaultBudget
	}
	if opts.Epsilon == 0 {
		opts.Epsilon = DefaultEpsilon
	} else if opts.Epsilon < 0 {
		opts.Epsilon = 0
	}
	eval := experiments.DefaultEvalBudget(opts.Scale)
	// One perf seed for the whole search: overhead deltas must be
	// comparable (and memoizable) across candidates, so the performance
	// stream is decorrelated from the per-candidate attack streams.
	perfSeed := sim.DeriveSeed(opts.Seed, "search/perf")

	seen := map[string]bool{}
	byID := map[string]Candidate{}
	resume := opts.Runner.Resume
	var rigs experiments.RigPoolStats

	evalBatch := func(batch []Params) error {
		if len(batch) == 0 {
			return nil
		}
		exps := make([]experiments.Experiment, len(batch))
		params := make(map[string]Params, len(batch))
		for i, p := range batch {
			d, err := p.Defense()
			if err != nil {
				return err
			}
			exps[i] = experiments.DefenseCandidateExperiment(p.ID(), d, eval, perfSeed)
			params[p.ID()] = p
		}
		cfg := opts.Runner
		cfg.Resume = resume
		rep, err := runner.New(cfg).RunNamed(JournalKind, JournalID, exps,
			runner.Job{Scale: opts.Scale, Seed: opts.Seed, Trials: 1})
		if err != nil {
			return err
		}
		rigs = rigs.Add(rep.Rigs)
		if cfg.CheckpointDir != "" {
			// Later batches append to the same journal; truncating it
			// would discard this batch's outcomes.
			resume = true
		}
		for _, er := range rep.Experiments {
			byID[er.ID] = candidateFrom(er, params[er.ID])
		}
		return nil
	}

	// Phase 1: coarse grid, anchors first, truncated to budget.
	grid := Grid()
	if len(grid) > opts.Budget {
		grid = grid[:opts.Budget]
	}
	for _, p := range grid {
		seen[p.ID()] = true
	}
	if err := evalBatch(grid); err != nil {
		return nil, err
	}

	// Phase 2: hill-climb refinement — mutate the current frontier's
	// members one axis step at a time until the budget is spent, the
	// neighborhood runs dry, or the generation cap trips. Candidate
	// outcomes are batch-independent, so which generation evaluates a
	// point never changes its numbers; when a generation oversubscribes
	// the remaining budget, a per-generation derived stream picks the
	// subset — decorrelated from every measurement stream and fixed by
	// (seed, generation), not by worker timing.
	generations := 0
	for gen := 1; gen <= maxGenerations; gen++ {
		remaining := opts.Budget - len(byID)
		if remaining <= 0 {
			break
		}
		front := Frontier(okPoints(byID), opts.Epsilon)
		var fresh []Params
		for _, pt := range front {
			parent, ok := paramsOf(byID, pt.ID)
			if !ok {
				continue
			}
			for _, q := range parent.Neighbors() {
				if !seen[q.ID()] {
					seen[q.ID()] = true
					fresh = append(fresh, q)
				}
			}
		}
		if len(fresh) == 0 {
			break
		}
		if len(fresh) > remaining {
			rng := sim.Derive(opts.Seed, fmt.Sprintf("search/gen%d", gen))
			rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
			fresh = fresh[:remaining]
		}
		sort.Slice(fresh, func(i, j int) bool { return fresh[i].ID() < fresh[j].ID() })
		if err := evalBatch(fresh); err != nil {
			return nil, err
		}
		generations = gen
	}

	// Assemble: candidates by ID, frontier by overhead.
	rep := &Report{
		Schema:      SchemaVersion,
		Scale:       opts.Scale.String(),
		Seed:        opts.Seed,
		Budget:      opts.Budget,
		Epsilon:     opts.Epsilon,
		Evaluated:   len(byID),
		Generations: generations,
		Rigs:        rigs,
	}
	pts := okPoints(byID)
	rep.Hypervolume = Hypervolume(pts, 1, 1)
	onFront := map[string]bool{}
	for _, p := range Frontier(pts, opts.Epsilon) {
		onFront[p.ID] = true
	}
	for id, c := range byID {
		c.OnFrontier = onFront[id]
		byID[id] = c
	}
	for _, c := range byID {
		rep.Candidates = append(rep.Candidates, c)
	}
	sort.Slice(rep.Candidates, func(i, j int) bool { return rep.Candidates[i].ID < rep.Candidates[j].ID })
	for _, c := range rep.Candidates {
		if c.OnFrontier {
			rep.Frontier = append(rep.Frontier, c)
		}
	}
	sort.Slice(rep.Frontier, func(i, j int) bool {
		a, b := rep.Frontier[i], rep.Frontier[j]
		if a.Overhead != b.Overhead {
			return a.Overhead < b.Overhead
		}
		if a.Leakage != b.Leakage {
			return a.Leakage < b.Leakage
		}
		return a.ID < b.ID
	})
	return rep, nil
}

// okPoints projects the successful candidates onto the objective plane.
func okPoints(byID map[string]Candidate) []Point {
	ids := make([]string, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var pts []Point
	for _, id := range ids {
		if c := byID[id]; c.OK {
			pts = append(pts, Point{ID: id, Leakage: c.Leakage, Overhead: c.Overhead})
		}
	}
	return pts
}

func paramsOf(byID map[string]Candidate, id string) (Params, bool) {
	c, ok := byID[id]
	return c.Params, ok
}

// candidateFrom extracts a candidate from its experiment report entry.
func candidateFrom(er runner.ExperimentReport, p Params) Candidate {
	c := Candidate{ID: er.ID, Params: p, OK: er.OK, Error: er.Error}
	if d, err := p.Defense(); err == nil {
		c.Defense = d.Name()
	}
	if !er.OK {
		return c
	}
	c.Metrics = make(map[string]float64, len(er.Metrics))
	for _, m := range er.Metrics {
		if len(m.Values) == 0 {
			continue
		}
		v := m.Values[0]
		c.Metrics[m.Name] = v
		switch m.Name {
		case "leakage":
			c.Leakage = v
		case "p99_delta":
			c.Overhead = v
		}
	}
	return c
}
