package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/search"
)

// Job kinds, aligned with the checkpoint journal's identity kinds so a
// job's journal is exactly the one a solo cmd/experiments run of the
// same spec would write and resume from.
const (
	// KindExperiments runs a selection of registry experiments.
	KindExperiments = "experiments"
	// KindSweep runs one parameter sweep.
	KindSweep = "sweep"
	// KindSearch runs the defense Pareto-frontier search.
	KindSearch = search.JournalKind
)

// JobSpec is one job: what a client POSTs to /v1/jobs, and what
// cmd/experiments builds from its flags — every field maps onto a flag.
// Both resolve it with Resolve and execute it with Resolved.Run, which is
// why a job's final report is byte-identical to a solo CLI run of the
// same spec. Anything that cannot be expressed as a solo run cannot be a
// job.
type JobSpec struct {
	// Kind is KindExperiments, KindSweep or KindSearch.
	Kind string `json:"kind"`
	// Experiments selects registry experiments for a KindExperiments job,
	// in report order (the CLI's -exp list). Empty or ["all"] runs the
	// full registry.
	Experiments []string `json:"experiments,omitempty"`
	// Sweep names the sweep of a KindSweep job (the CLI's -sweep).
	Sweep string `json:"sweep,omitempty"`
	// Scale is "demo" (default) or "paper".
	Scale string `json:"scale,omitempty"`
	// Seed is the root seed; omitted means 1, matching the CLI default.
	Seed *int64 `json:"seed,omitempty"`
	// Trials per experiment or cell; omitted means 1.
	Trials int `json:"trials,omitempty"`
	// Cold disables warm offline-artifact reuse (the CLI's -cold). Warm
	// jobs share the daemon's content-addressed store; bytes are
	// identical either way.
	Cold bool `json:"cold,omitempty"`
	// Defense, for sweep jobs whose grid has a defense axis, restricts
	// that axis to the named defenses (the CLI's -defense override).
	Defense []string `json:"defense,omitempty"`
	// Budget, for search jobs, caps total candidate evaluations (the
	// CLI's -search-budget); omitted means the search default.
	Budget int `json:"budget,omitempty"`
	// Epsilon, for search jobs, is the overhead-axis ε-dominance slack
	// (the CLI's -search-eps); omitted means the search default,
	// negative means strict dominance.
	Epsilon float64 `json:"epsilon,omitempty"`
}

// Resolved is a validated, normalized spec bound to its runnable registry
// entries. The normalized spec (defaults applied) is what is persisted,
// hashed into the job ID, and echoed in status responses.
type Resolved struct {
	// ID is the content address of Spec (see specID).
	ID string
	// Spec is the submitted spec with every default applied.
	Spec JobSpec
	// Units counts the job's experiments, grid cells, or budgeted
	// search candidates.
	Units int

	scale     experiments.Scale
	selection []experiments.Experiment // KindExperiments
	sweep     experiments.Sweep        // KindSweep, grid possibly restricted
	// journal names the checkpoint journal file the run will lock. Job
	// kinds are journal kinds; experiment journals are selection-
	// independent by design, so two jobs over different selections share
	// one journal — the service serializes them on it rather than
	// tripping the runner's flock.
	journal string
}

// Report is a finished job's report: a *runner.Report, a
// *runner.SweepReport or a *search.Report.
type Report interface {
	WriteJSON(io.Writer) error
	WriteText(io.Writer) error
	// Failed counts the experiments, cells or candidates that failed.
	Failed() int
}

// Resolve validates a spec against the registry and normalizes it. Every
// error is a usage error (HTTP 400, CLI exit 2): the registry is fixed
// at build time.
func Resolve(spec JobSpec) (Resolved, error) {
	var r Resolved
	switch spec.Scale {
	case "", "demo":
		r.scale = experiments.Demo
		spec.Scale = "demo"
	case "paper":
		r.scale = experiments.Paper
	default:
		return r, fmt.Errorf("unknown scale %q (want demo or paper)", spec.Scale)
	}
	if spec.Seed == nil {
		one := int64(1)
		spec.Seed = &one
	}
	if spec.Trials < 0 {
		return r, fmt.Errorf("trials must be >= 0 (0 means 1)")
	}
	if spec.Trials == 0 {
		spec.Trials = 1
	}

	if spec.Kind != KindSearch && (spec.Budget != 0 || spec.Epsilon != 0) {
		return r, fmt.Errorf("budget and epsilon require a search job")
	}

	var journalID string
	switch spec.Kind {
	case KindExperiments:
		if spec.Sweep != "" {
			return r, fmt.Errorf("kind %q does not take a sweep", KindExperiments)
		}
		if len(spec.Defense) > 0 {
			return r, fmt.Errorf("defense override requires a sweep job")
		}
		ids := spec.Experiments
		if len(ids) == 0 || (len(ids) == 1 && ids[0] == "all") {
			spec.Experiments = []string{"all"}
			r.selection = experiments.All()
		} else {
			norm := make([]string, 0, len(ids))
			seen := make(map[string]bool, len(ids))
			for _, id := range ids {
				id = strings.TrimSpace(id)
				e, ok := experiments.ByID(id)
				if !ok {
					return r, fmt.Errorf("unknown experiment %q", id)
				}
				if seen[id] {
					return r, fmt.Errorf("duplicate experiment %q", id)
				}
				seen[id] = true
				norm = append(norm, id)
				r.selection = append(r.selection, e)
			}
			spec.Experiments = norm
		}
		r.Units = len(r.selection)
	case KindSweep:
		if len(spec.Experiments) > 0 {
			return r, fmt.Errorf("kind %q does not take an experiment selection", KindSweep)
		}
		if spec.Sweep == "" {
			return r, fmt.Errorf("sweep job names no sweep")
		}
		sw, ok := experiments.SweepByID(spec.Sweep)
		if !ok {
			return r, fmt.Errorf("unknown sweep %q", spec.Sweep)
		}
		r.sweep = sw
		if len(spec.Defense) > 0 {
			grid, err := r.sweep.Grid.Restrict(scenario.AxisDefense, spec.Defense)
			if err != nil {
				return r, fmt.Errorf("defense override: %w", err)
			}
			r.sweep.Grid = grid
		}
		r.Units = r.sweep.Grid.Size()
		journalID = r.sweep.ID
	case KindSearch:
		if len(spec.Experiments) > 0 || spec.Sweep != "" || len(spec.Defense) > 0 {
			return r, fmt.Errorf("kind %q takes no experiment, sweep, or defense selection", KindSearch)
		}
		if spec.Trials != 1 {
			// A candidate's score is a pure function of (params, scale,
			// seed); the search journals one trial per candidate.
			return r, fmt.Errorf("search jobs run one trial per candidate")
		}
		if spec.Budget < 0 {
			return r, fmt.Errorf("budget must be >= 0 (0 means the default %d)", search.DefaultBudget)
		}
		if spec.Budget == 0 {
			spec.Budget = search.DefaultBudget
		}
		if spec.Epsilon == 0 {
			spec.Epsilon = search.DefaultEpsilon
		}
		r.Units = spec.Budget
		journalID = search.JournalID
	default:
		return r, fmt.Errorf("unknown kind %q (want %q, %q, or %q)", spec.Kind, KindExperiments, KindSweep, KindSearch)
	}

	r.Spec = spec
	r.ID = specID(spec)
	r.journal = runner.JournalName(spec.Kind, journalID, r.runnerJob())
	return r, nil
}

// Run executes the resolved job under cfg and returns its report. It is
// the one place a job's kind picks its driver: the CLI and the service
// both run jobs through it. The report is non-nil exactly when the error
// is nil.
func (r Resolved) Run(cfg runner.Config) (Report, error) {
	var rep Report
	var err error
	switch r.Spec.Kind {
	case KindSearch:
		// The search drives the runner itself (batched phases under one
		// journal identity), so it takes the config rather than a Runner;
		// cfg's sinks still see every candidate outcome.
		rep, err = search.Run(search.Options{
			Scale:   r.scale,
			Seed:    *r.Spec.Seed,
			Budget:  r.Spec.Budget,
			Epsilon: r.Spec.Epsilon,
			Runner:  cfg,
		})
	case KindSweep:
		rep, err = runner.New(cfg).RunSweep(r.sweep, r.runnerJob())
	default:
		rep, err = runner.New(cfg).Run(r.selection, r.runnerJob())
	}
	if err != nil {
		// A failed driver's nil pointer would otherwise become a
		// non-nil Report.
		return nil, err
	}
	return rep, nil
}

// specID content-addresses a normalized spec: identical submissions are
// one job, so Submit is idempotent and a restarted daemon re-adopts its
// persisted jobs under the same IDs.
func specID(spec JobSpec) string {
	b, err := json.Marshal(spec)
	if err != nil {
		panic(fmt.Sprintf("service: spec not marshalable: %v", err)) // unreachable: spec is plain data
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// runnerJob maps the spec onto the runner's job description.
func (r Resolved) runnerJob() runner.Job {
	return runner.Job{Scale: r.scale, Seed: *r.Spec.Seed, Trials: r.Spec.Trials}
}
