package runner

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// SweepSchemaVersion identifies the sweep JSON document layout. v2 added
// the per-cell "labels" map: categorical coordinates (defense axes) are
// now identified by name alongside their numeric registry index, so a
// report's meaning no longer shifts when the registry order does.
const SweepSchemaVersion = "packetchasing-sweep/v2"

// SweepReport is the aggregated outcome of one grid sweep. Like Report,
// its JSON encoding excludes everything nondeterministic: for a fixed
// (sweep, scale, seed, trials) the bytes are identical regardless of the
// worker-pool width. Cells appear in the grid's row-major order and carry
// their coordinates, so downstream tooling can rebuild any slice of the
// parameter space without re-deriving the grid.
type SweepReport struct {
	Schema string          `json:"schema"`
	Sweep  string          `json:"sweep"`
	Title  string          `json:"title"`
	Scale  string          `json:"scale"`
	Seed   int64           `json:"seed"`
	Trials int             `json:"trials"`
	Axes   []scenario.Axis `json:"axes"`
	Cells  []CellReport    `json:"cells"`
}

// CellReport is one grid cell's aggregated entry.
type CellReport struct {
	// Key is the cell's canonical coordinate string
	// ("noise_rate=20000,timer_noise=4").
	Key string `json:"key"`
	// Coords is the cell's position as an axis->value map.
	Coords map[string]float64 `json:"coords"`
	// Labels names the cell's categorical coordinates (axis->label, e.g.
	// "defense" -> "adaptive-partition"); absent for purely numeric cells.
	// Coords keeps the numeric registry index for plotting, but the label
	// is the stable identity — indices change with registry order.
	Labels map[string]string `json:"labels,omitempty"`
	OK     bool              `json:"ok"`
	Error  string            `json:"error,omitempty"`
	// Metrics aggregates the cell's trials like an experiment's.
	Metrics []MetricSummary `json:"metrics,omitempty"`

	// Wall is the summed wall-clock time of the cell's trials (stderr
	// reporting only, never serialized).
	Wall time.Duration `json:"-"`
}

// Failed counts cells with at least one failing trial.
func (r *SweepReport) Failed() int {
	n := 0
	for _, c := range r.Cells {
		if !c.OK {
			n++
		}
	}
	return n
}

// MetricCurve extracts one metric's per-cell summaries in grid order — the
// sensitivity curve downstream checks (monotonicity, CI assertions) read.
func (r *SweepReport) MetricCurve(name string) []MetricSummary {
	var out []MetricSummary
	for _, c := range r.Cells {
		for _, m := range c.Metrics {
			if m.Name == name {
				out = append(out, m)
				break
			}
		}
	}
	return out
}

// CellSeed derives the seed for one trial of one grid cell. Seeds are
// decorrelated across sweeps, cells, and trial indices: the label bakes in
// the sweep id and the cell's canonical key.
func CellSeed(root int64, sweepID, cellKey string, trial int) int64 {
	return sim.DeriveSeed(root, fmt.Sprintf("%s/%s/trial%d", sweepID, cellKey, trial))
}

// SweepOfflineSeed derives the offline-phase seed of a phase-split sweep.
// Unlike CellSeed it deliberately excludes the cell key and trial index:
// every cell and trial prepares the same machines for a given machine
// shape, which is what lets a warm run share one offline artifact across
// the entire grid when the swept axes are online-only. Cells that do
// sweep offline-relevant geometry (e.g. ring size) still get distinct
// artifacts via the store's machine fingerprint, not via the seed.
func SweepOfflineSeed(root int64, sweepID string) int64 {
	return sim.DeriveSeed(root, sweepID+"/offline")
}

// WriteJSON serializes the sweep report as indented, newline-terminated
// JSON.
func (r *SweepReport) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteText renders the sweep as one aligned table: a row per (cell,
// metric) with the aggregate summary, failures called out inline.
func (r *SweepReport) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== sweep %s: %s ==\n", r.Sweep, r.Title); err != nil {
		return err
	}
	keyW, nameW := len("cell"), len("metric")
	for _, c := range r.Cells {
		if len(c.Key) > keyW {
			keyW = len(c.Key)
		}
		for _, m := range c.Metrics {
			if len(m.Name) > nameW {
				nameW = len(m.Name)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "%-*s  %-*s  mean +/- stddev [min, max]\n", keyW, "cell", nameW, "metric"); err != nil {
		return err
	}
	for _, c := range r.Cells {
		if !c.OK {
			if _, err := fmt.Fprintf(w, "%-*s  FAILED: %s\n", keyW, c.Key, c.Error); err != nil {
				return err
			}
			if len(c.Metrics) == 0 {
				continue
			}
		}
		for _, m := range c.Metrics {
			unit := ""
			if m.Unit != "" {
				unit = "  (" + m.Unit + ")"
			}
			if _, err := fmt.Fprintf(w, "%-*s  %-*s  %.6g +/- %.6g  [%.6g, %.6g]%s\n",
				keyW, c.Key, nameW, m.Name, m.Summary.Mean, m.Summary.StdDev,
				m.Summary.Min, m.Summary.Max, unit); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintf(w, "(%s scale, seed %d, %d trial(s), %d cell(s))\n",
		r.Scale, r.Seed, r.Trials, len(r.Cells))
	return err
}
