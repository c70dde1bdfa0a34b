package probe

import "fmt"

// Strategy selects how the spy turns raw timed loads into decisions — the
// knob that distinguishes the paper's fine-timer attacker from the
// coarse-timer-resilient variant (§VI-a names timer coarsening as a cheap
// mitigation; this is the attacker that pushes back on it).
//
// The fine-timer strategy (DefaultStrategy) times every load individually
// and calibrates from small-sample means: cheap, and exactly right when
// the timer is sharp. Under a coarse timer every reading gains one-sided
// jitter in [0, 2N] cycles, and three things break in order: the
// calibrated hit/miss midpoint drifts, the conflict test's single reload
// drowns, and — first in practice — the monitor's activity threshold
// (idle baseline + half an edge, ~80 cycles) is crossed by accumulated
// per-access jitter on idle probes, blinding the monitor with false
// activity.
//
// The amplified strategy (AmplifiedStrategy) counters each failure with a
// repeated-measurement technique the attacker can always afford:
//
//   - calibration takes many timed trials per address and estimates the
//     edge from distribution medians (one-sided jitter shifts a median by
//     its own median, so the hit/miss *difference* is jitter-free), and
//     estimates the timer's noise spread from the same samples;
//   - the conflict test walks the candidate eviction set K times per
//     decision and times the victim reload of every round: the latency
//     delta between "evicted" and "survived" grows linearly in K while the
//     averaged jitter grows only ~sqrt(K), with K chosen adaptively from
//     the calibrated noise floor;
//   - probe walks are timed as one block (two timer reads around the whole
//     walk) instead of per access, so a walk carries a single quantization
//     draw regardless of its length, and activity thresholds add the full
//     calibrated noise spread instead of assuming a sharp timer.
type Strategy struct {
	// Amplify enables the repeated-measurement machinery: distribution
	// calibration, adaptively amplified conflict tests, and block-timed
	// probe walks.
	Amplify bool
}

const (
	// fineCalTrials is the number of timed measurements per calibration
	// point (hit distribution and miss distribution) of the fine-timer
	// strategy. The amplified strategy takes amplifiedCalTrials to make
	// the medians and the spread estimate sharp.
	fineCalTrials      = 16
	amplifiedCalTrials = 64
	// maxFactor caps the adaptive amplification factor K of the conflict
	// test. The factor grows roughly quadratically with the timer's noise
	// spread, so the cap bounds offline-phase cost when the attacker
	// prepares under an extremely coarse timer.
	maxFactor = 32
)

// DefaultStrategy is the paper's fine-timer attacker: per-access timing,
// 16-trial mean calibration, no amplification. It reproduces the
// historical spy byte for byte.
func DefaultStrategy() Strategy {
	return Strategy{}
}

// AmplifiedStrategy is the coarse-timer-resilient attacker.
func AmplifiedStrategy() Strategy {
	return Strategy{Amplify: true}
}

// Fingerprint canonically identifies the strategy for content-addressed
// artifact keys: two prepared machines whose spies calibrated under
// different strategies must never be interchanged. The default strategy
// fingerprints to "" so historical keys are unchanged.
func (st Strategy) Fingerprint() string {
	if !st.Amplify {
		return ""
	}
	return fmt.Sprintf("amplified(cal=%d,max=%d)", amplifiedCalTrials, maxFactor)
}
