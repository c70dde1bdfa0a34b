// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment is a named Prepare/Measure pair that runs
// the relevant attack or defense pipeline and returns formatted rows plus
// structured metric values; internal/runner fans the registry out over a
// worker pool and aggregates metrics across trials, and cmd/experiments
// prints the results.
//
// Two scales are supported. Demo scale (the default) shrinks the machine
// so each experiment finishes in seconds on one core while keeping every
// structural ratio of the paper machine (ring size == page-aligned set
// count, 2 buffers per page, 1 GbE wire). Paper scale uses the full
// 20 MB / 8-slice / 20-way LLC and 256-descriptor ring.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cache"
	"repro/internal/chase"
	"repro/internal/probe"
	"repro/internal/scenario"
	"repro/internal/testbed"
)

// Scale selects experiment sizing.
type Scale int

const (
	// Demo is a structurally faithful scaled-down machine (64 aligned
	// sets, 64-buffer ring, 8-way cache).
	Demo Scale = iota
	// Paper is the full paper machine (256 aligned sets, 256 buffers,
	// 20-way 20 MB LLC). Offline-phase experiments take minutes.
	Paper
)

func (s Scale) String() string {
	if s == Paper {
		return "paper"
	}
	return "demo"
}

// Metric is one named numeric outcome of an experiment — the machine-
// readable counterpart of a table cell. Names are stable snake_case
// identifiers so downstream tooling (the runner's JSON document, CI
// regression checks) can key on them across runs.
type Metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit,omitempty"`
	Value float64 `json:"value"`
}

// Result is one experiment's output: a title, headed rows, free-form
// notes comparing against the paper's reported numbers, and the named
// metric values behind the table for machine-readable aggregation.
type Result struct {
	ID      string
	Title   string
	Header  []string
	Rows    [][]string
	Notes   []string
	Metrics []Metric
}

// AddMetric appends a named metric value to the result. Every experiment
// must report at least one metric; trial aggregation and the CI smoke
// check both key on them.
func (r *Result) AddMetric(name, unit string, v float64) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Unit: unit, Value: v})
}

// Format renders the result as an aligned text table.
func (r Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			} else {
				b.WriteString(c + "  ")
			}
		}
		b.WriteString("\n")
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is a runnable evaluation item, split into the attack's two
// phases (see artifact.go): Prepare builds the offline machines once and
// Measure runs one trial on clones of them. The runner requires both and
// exploits the split to prepare once and measure many times.
type Experiment struct {
	ID      string
	Short   string
	Prepare PrepareFunc
	Measure MeasureFunc
	// Run is Prepare followed by Measure under one seed, the single-seed
	// reference that tests compare runner trials against. The runner
	// never calls it; it is kept because the benchmark's tracer still
	// wraps it.
	Run func(scale Scale, seed int64) (Result, error)
}

// Phased reports whether the experiment has both phases, the shape the
// runner requires. Kept for the benchmark's tracer, which still branches
// on it.
func (e Experiment) Phased() bool { return e.Prepare != nil && e.Measure != nil }

// phasedExp registers an experiment, deriving its Run form.
func phasedExp(id, short string, p PrepareFunc, m MeasureFunc) Experiment {
	return Experiment{ID: id, Short: short, Run: phasedRun(p, m), Prepare: p, Measure: m}
}

// onlineExp registers an experiment without an offline phase (the driver
// mapping figures and the perfsim cost model). Prepare returns an empty
// artifact, a fresh pointer on every call; Measure runs body under the
// trial seed, so every trial recomputes body(scale, seed) in full.
func onlineExp(id, short string, body func(Scale, int64) (Result, error)) Experiment {
	return phasedExp(id, short,
		func(ctx PrepareCtx) (*Artifact, error) { return ctx.NewArtifact(), nil },
		func(ctx MeasureCtx, _ *Artifact) (Result, error) { return body(ctx.Scale, ctx.Seed) })
}

// All returns the registry of experiments in paper order.
func All() []Experiment {
	return []Experiment{
		onlineExp("fig5", "ring buffers per page-aligned cache set (one driver instance)", Fig5),
		onlineExp("fig6", "mapping distribution over 1000 driver instances", Fig6),
		phasedExp("fig7", "page-aligned set activity: idle vs receiving", PrepareFig7, MeasureFig7),
		phasedExp("fig8", "packet-size detection matrix (blocks 0-3)", PrepareFig8, MeasureFig8),
		phasedExp("table1", "ring sequence recovery quality", PrepareTable1, MeasureTable1),
		phasedExp("fig10", "covert channel decoded symbol trace", PrepareFig10, MeasureFig10),
		phasedExp("fig11", "covert channel bandwidth/error vs probe rate", PrepareFig11, MeasureFig11),
		phasedExp("fig12ab", "multi-buffer covert channel scaling", PrepareFig12ab, MeasureFig12ab),
		phasedExp("fig12cd", "full-chasing channel: out-of-sync and error vs rate", PrepareFig12cd, MeasureFig12cd),
		phasedExp("fig13", "hotcrp login fingerprint traces", PrepareFig13, MeasureFig13),
		phasedExp("fingerprint", "closed-world website fingerprinting accuracy", PrepareFingerprint, MeasureFingerprint),
		onlineExp("table2", "baseline processor configuration", Table2),
		onlineExp("fig14", "Nginx throughput: adaptive partitioning vs DDIO", Fig14),
		onlineExp("fig15", "memory traffic and LLC miss rate by scheme", Fig15),
		onlineExp("fig16", "HTTP tail latency by defense scheme", Fig16),
		phasedExp("matrix_defense", "attack x defense matrix: leakage vs overhead", PrepareMatrixDefense, MeasureMatrixDefense),
		phasedExp("chase_coarse_timer", "chase accuracy vs timer jitter: fine-timer vs amplified attacker", PrepareChaseCoarseTimer, MeasureChaseCoarseTimer),
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// baselineSpec returns the scenario every registry experiment runs at:
// the full paper machine, or the scaled demo machine (2 slices x 2048
// sets x 8 ways = 2 MB, 64 aligned sets, ring 64).
func baselineSpec(scale Scale) scenario.Spec {
	return scenario.Baseline(scale == Paper)
}

// machineOptions returns testbed options for the scale, built from the
// baseline scenario spec.
func machineOptions(scale Scale, seed int64) testbed.Options {
	return baselineSpec(scale).Options(seed)
}

func spyPages(opts testbed.Options) int {
	return opts.Cache.AlignedSetCount() * opts.Cache.Ways * 3
}

// attackRig assembles the machine plus offline-phase outputs shared by the
// attack experiments.
type attackRig struct {
	tb     *testbed.Testbed
	spy    *probe.Spy
	groups []probe.EvictionSet
	ccfg   cache.Config
	// poolKey is the OfflineFingerprint of the machine the rig last
	// adopted: RigPool reuses a rig only for artifacts with an identical
	// fingerprint, i.e. identical buffer geometry.
	poolKey string
}

// canonical maps group ids to canonical aligned-set indices (ground-truth
// comparisons only).
func (r *attackRig) canonical() map[int]int {
	m := make(map[int]int, len(r.groups))
	for _, g := range r.groups {
		m[g.ID] = r.ccfg.AlignedIndexOf(r.ccfg.GlobalSet(g.Lines[0]))
	}
	return m
}

// groundTruthRing returns the true ring as group ids.
func (r *attackRig) groundTruthRing() []int {
	byCanon := map[int]int{}
	for _, g := range r.groups {
		byCanon[r.ccfg.AlignedIndexOf(r.ccfg.GlobalSet(g.Lines[0]))] = g.ID
	}
	truth := r.tb.NIC().RingAlignedSets(r.ccfg)
	ring := make([]int, len(truth))
	for i, s := range truth {
		ring[i] = byCanon[s]
	}
	return ring
}

// restrictTruth builds the canonical ground-truth ring restricted to the
// recovered alphabet for Table 1 evaluation.
func restrictTruth(truth []int, keep map[int]bool) []int {
	return chase.CollapseRuns(chase.FilterTruth(truth, keep))
}

// slug converts a display name ("Adaptive Partitioning", "hotcrp-login-
// success") into a stable snake_case metric-name segment.
func slug(s string) string {
	var b strings.Builder
	pending := false
	for _, c := range strings.ToLower(s) {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			if pending && b.Len() > 0 {
				b.WriteByte('_')
			}
			pending = false
			b.WriteRune(c)
		default:
			pending = true
		}
	}
	return b.String()
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

func sortedKeys(m map[int]int) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
