package experiments

import (
	"fmt"

	"repro/internal/defense"
	"repro/internal/probe"
	"repro/internal/scenario"
)

// matrix_defense is the headline attack × defense evaluation: every
// registered platform defense is installed on the baseline machine, every
// attack family (online chase, covert channel, website fingerprinting) is
// run against it, and the perfsim cost model prices the same defense on
// the overhead axis. The result is the leakage-vs-overhead grid behind
// the paper's §VI-§VII narrative — the one table that answers both "does
// the attack still work" and "what does the defense cost" for every
// mitigation at once.

// defenseSpec is the baseline scenario with a defense installed.
func defenseSpec(scale Scale, d defense.Defense) scenario.Spec {
	return baselineSpec(scale).WithDefense(d)
}

// coarsensTimer reports whether the defense denies the attacker a
// fine-grained timer (directly or inside a stack): the cells where the
// amplified coarse-timer attacker is the strongest known attack and must
// be the one the matrix reports.
func coarsensTimer(scale Scale, d defense.Defense) bool {
	base := baselineSpec(scale)
	opts := base.Options(0)
	d.Apply(&opts)
	return opts.TimerNoise > base.TimerNoise
}

// amplifiedLabel names a defense cell's amplified-attacker rig.
func amplifiedLabel(name string) string { return name + "+amplified" }

// pickHigher reports whether measurement (a, calA) beats (b, calB) on a
// higher-is-stronger scale (negate values for lower-is-stronger):
// calibrated measurements always beat uncalibrated ones, and raw values
// compare only between equally calibrated measurements.
func pickHigher(a float64, calA bool, b float64, calB bool) bool {
	if calA != calB {
		return calA
	}
	return a > b
}

// PrepareMatrixDefense builds one machine per registered defense — and,
// for defenses that coarsen the timer, a second machine prepared by the
// amplified attacker (probe.AmplifiedStrategy), because the matrix
// reports the strongest known attack per cell. Rigs are labeled by
// defense name and content-addressed by the defended machine's options
// plus the attacker strategy: a timer-coarsening machine differs from the
// stock one only in TimerNoise, and its offline phase (calibration,
// eviction sets) ran under the coarse timer, so the key keeps the
// artifacts apart.
func PrepareMatrixDefense(ctx PrepareCtx) (*Artifact, error) {
	art := ctx.NewArtifact()
	for _, d := range defense.All() {
		if err := addDefenseRigs(ctx, art, d.Name(), d); err != nil {
			return nil, err
		}
	}
	return art, nil
}

// addDefenseRigs files the rigs one defense cell measures: the fine-timer
// attacker's machine under label and, when the defense coarsens the
// timer, the amplified attacker's under amplifiedLabel(label). The matrix
// and the frontier candidates both prepare through it, so they agree on
// which attackers a defense faces.
func addDefenseRigs(ctx PrepareCtx, art *Artifact, label string, d defense.Defense) error {
	spec := defenseSpec(ctx.Scale, d)
	if err := ctx.AddRig(art, label, spec.Options(ctx.Seed), probe.DefaultStrategy()); err != nil {
		return err
	}
	if coarsensTimer(ctx.Scale, d) {
		return ctx.AddRig(art, amplifiedLabel(label), spec.Options(ctx.Seed), probe.AmplifiedStrategy())
	}
	return nil
}

// MeasureMatrixDefense measures the grid: one scoreDefense cell per
// registered defense, which reports the strongest known attack and the
// composed machine's cost.
func MeasureMatrixDefense(ctx MeasureCtx, art *Artifact) (Result, error) {
	budget := DefenseEvalBudget{CovertSymbols: 100, FPTrials: 10, NginxRequests: 6_000}
	if ctx.Scale == Paper {
		budget = DefenseEvalBudget{CovertSymbols: 250, FPTrials: 100, NginxRequests: 30_000}
	}

	res := Result{
		ID:    "matrix_defense",
		Title: "attack x defense matrix: strongest-attack leakage vs overhead for every registered defense",
		Header: []string{"defense", "attacker", "chase acc", "covert err", "fp acc",
			"p99 delta", "tput loss"},
	}
	for _, d := range defense.All() {
		name := d.Name()
		key := slug(name)
		s, err := scoreDefense(ctx, art, name, d, budget, ctx.Seed)
		if err != nil {
			return Result{}, err
		}
		attacker := "fine-timer"
		if s.amplified {
			attacker = "strongest(fine,amplified)"
			addLeakageMetrics(&res, key+"_fine_timer_", s.fine)
			addLeakageMetrics(&res, key+"_amplified_", s.amp)
		}
		lk := s.leakage
		res.Rows = append(res.Rows, []string{
			name, attacker, pct(lk.chaseAcc), pct(lk.covertErr), pct(lk.fpAcc),
			fmt.Sprintf("%+.1f%%", 100*s.p99Delta), fmt.Sprintf("%+.1f%%", 100*s.tputLoss),
		})
		addLeakageMetrics(&res, key+"_", lk)
		res.AddMetric(key+"_p99_delta", "fraction", s.p99Delta)
		res.AddMetric(key+"_throughput_loss", "fraction", s.tputLoss)
		// The *_dominant_* names stay because the registry digest in
		// bench/testdata/digests.json pins them, and only a change to the
		// benchmark may re-pin it. For every registered defense they
		// equal the composed values.
		res.AddMetric(key+"_dominant_p99_delta", "fraction", s.p99Delta)
		res.AddMetric(key+"_dominant_throughput_loss", "fraction", s.tputLoss)
	}
	res.AddMetric("defenses", "count", float64(len(defense.All())))
	res.Notes = append(res.Notes,
		"leakage: chase accuracy and fingerprint accuracy fall (and covert error rises) as a defense bites;",
		"*_calibration_ok distinguishes 'the defense erased the signal' from 'the attacker went blind': a 0 means that family's number is the output of monitors that reported themselves unable to separate timer jitter from activity;",
		"each cell reports the strongest known attack: timer-coarsening cells are re-derived with the amplified repeated-measurement attacker (probe.AmplifiedStrategy), with both attackers' raw numbers kept as *_fine_timer_* / *_amplified_* metrics; selection prefers calibrated measurements, so a blind attacker's chance-level noise never outranks a calibrated attacker's true number;",
		"overhead: perfsim Nginx p99/throughput deltas vs the vulnerable baseline, priced on the composed machine (every stack layer's mechanism installed at once); *_dominant_* metrics repeat the composed values (timer coarsening is client-side: zero server cost)",
		"paper shape: adaptive partitioning erases the channel for a few percent overhead; disabling DDIO degrades but does not stop the attack; full ring randomization pays ~40% p99; timer coarsening alone does NOT stop the amplified attacker")
	return res, nil
}
