package runner

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/experiments"
	"repro/internal/stats"
)

// SchemaVersion identifies the JSON document layout so CI regression
// checks can reject documents they do not understand.
const SchemaVersion = "packetchasing-results/v1"

// Report is the aggregated outcome of one sweep. Its JSON encoding is
// the runner's machine-readable output format and deliberately excludes
// anything nondeterministic (wall-clock timings, worker-pool width):
// the same (selection, scale, seed, trials) must always serialize to the
// same bytes.
type Report struct {
	Schema      string             `json:"schema"`
	Scale       string             `json:"scale"`
	Seed        int64              `json:"seed"`
	Trials      int                `json:"trials"`
	Experiments []ExperimentReport `json:"experiments"`

	// Rigs sums the worker rig pools' counts (telemetry, never
	// serialized: it depends on which worker ran which trial).
	Rigs experiments.RigPoolStats `json:"-"`
}

// ExperimentReport is one experiment's aggregated entry.
type ExperimentReport struct {
	ID      string          `json:"id"`
	Title   string          `json:"title"`
	OK      bool            `json:"ok"`
	Error   string          `json:"error,omitempty"`
	Metrics []MetricSummary `json:"metrics,omitempty"`

	// Table is the first successful trial's full result (text rendering
	// only — the formatted table is not part of the JSON contract).
	Table experiments.Result `json:"-"`
	// Wall is the summed wall-clock time of this experiment's trials
	// across all workers (reported on stderr, never serialized).
	Wall time.Duration `json:"-"`
}

// MetricSummary is one metric reduced over the experiment's trials.
type MetricSummary struct {
	Name    string        `json:"name"`
	Unit    string        `json:"unit,omitempty"`
	Summary stats.Summary `json:"summary"`
	Values  []float64     `json:"values"`
}

// Failed counts experiments that had at least one failing trial.
func (r *Report) Failed() int {
	n := 0
	for _, e := range r.Experiments {
		if !e.OK {
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

// WriteText renders the report the way cmd/experiments traditionally
// printed it: one aligned table per experiment (the first trial's), plus
// an aggregate block when multiple trials ran.
func (r *Report) WriteText(w io.Writer) error {
	for _, e := range r.Experiments {
		if !e.OK {
			if _, err := fmt.Fprintf(w, "== %s: FAILED ==\n%s\n", e.ID, e.Error); err != nil {
				return err
			}
			// A partially failed experiment still has the surviving
			// trials' table and aggregate — show them like the JSON does.
			if e.Table.ID == "" {
				if _, err := io.WriteString(w, "\n"); err != nil {
					return err
				}
				continue
			}
		}
		if _, err := io.WriteString(w, e.Table.Format()); err != nil {
			return err
		}
		if r.Trials > 1 {
			if _, err := fmt.Fprintf(w, "-- aggregate over %d trials: mean +/- stddev [min, max] --\n", r.Trials); err != nil {
				return err
			}
			width := 0
			for _, m := range e.Metrics {
				if len(m.Name) > width {
					width = len(m.Name)
				}
			}
			for _, m := range e.Metrics {
				unit := ""
				if m.Unit != "" {
					unit = "  (" + m.Unit + ")"
				}
				if _, err := fmt.Fprintf(w, "%-*s  %.6g +/- %.6g  [%.6g, %.6g]%s\n",
					width, m.Name, m.Summary.Mean, m.Summary.StdDev,
					m.Summary.Min, m.Summary.Max, unit); err != nil {
					return err
				}
			}
		}
		if _, err := fmt.Fprintf(w, "(%s, %s scale, %d trial(s), %.1fs total wall)\n\n",
			e.ID, r.Scale, r.Trials, e.Wall.Seconds()); err != nil {
			return err
		}
	}
	return nil
}
