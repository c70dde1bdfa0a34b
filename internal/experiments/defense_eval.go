package experiments

import (
	"fmt"
	"sync"

	"repro/internal/covert"
	"repro/internal/defense"
	"repro/internal/fingerprint"
	"repro/internal/perfsim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/webtrace"
)

// This file is the shared defense evaluator: the attack-family leakage
// measurement the matrix_defense experiment always ran, factored out so
// the frontier search (internal/search) can score arbitrary candidate
// defenses with exactly the matrix's semantics — same attack batteries,
// same calibration gating, same strongest-attack merge — at a
// configurable per-candidate budget.

// attackLeakage is one rig's three-family attack outcome. Each family
// carries its calibration-health signal so a blind attacker's numbers
// can never read as a defense outcome.
type attackLeakage struct {
	chaseAcc  float64
	covertErr float64
	fpAcc     float64
	chaseCal  bool
	covertCal bool
	fpCal     bool
}

// scalar collapses the three families onto one leakage axis: the
// strongest attack's success probability (covert success is 1−error).
// This is the y-axis of the Pareto frontier.
func (l attackLeakage) scalar() float64 {
	s := l.chaseAcc
	if c := 1 - l.covertErr; c > s {
		s = c
	}
	if l.fpAcc > s {
		s = l.fpAcc
	}
	return s
}

// strongestAttack merges two attackers' measurements per family, taking
// the stronger attack AND carrying that attacker's health signal.
// "Stronger" is gated on calibration: a blind attacker's chance-level
// noise must never outrank a calibrated attacker's true measurement
// (under the partition+coarse stack the blind fine-timer chaser scores
// the two-class coin-flip ~0.5 while the calibrated amplified chaser
// truly measures ~0 — the cell must report the real leakage, not the
// noise). Raw numbers compare only between equally calibrated
// measurements.
func strongestAttack(fine, amp attackLeakage) attackLeakage {
	lk := fine
	if pickHigher(amp.chaseAcc, amp.chaseCal, lk.chaseAcc, lk.chaseCal) {
		lk.chaseAcc, lk.chaseCal = amp.chaseAcc, amp.chaseCal
	}
	if pickHigher(-amp.covertErr, amp.covertCal, -lk.covertErr, lk.covertCal) {
		lk.covertErr, lk.covertCal = amp.covertErr, amp.covertCal
	}
	if pickHigher(amp.fpAcc, amp.fpCal, lk.fpAcc, lk.fpCal) {
		lk.fpAcc, lk.fpCal = amp.fpAcc, amp.fpCal
	}
	return lk
}

// defenseLeakage runs the three attack families against one prepared
// rig (each family on its own fresh clone) at the given measurement
// budget.
func defenseLeakage(ctx MeasureCtx, art *Artifact, label string, covertSymbols, fpTrials int) (attackLeakage, error) {
	out := attackLeakage{covertErr: 1, covertCal: true}

	chaseRig, err := art.rig(label, ctx)
	if err != nil {
		return attackLeakage{}, err
	}
	// Three ring revolutions, not one: ring randomization only moves a
	// buffer after its first use, so a single pass is blind to §VI-b
	// (see chaseFrames).
	chase := chaseAccuracy(chaseRig, nil, chaseFrames(chaseRig))
	out.chaseAcc, out.chaseCal = chase.acc, chase.calOK

	// A ring with no isolated buffer means the channel cannot even be
	// established — that counts as fully erased (error 1, with the
	// health signal vacuously true: no receiver was ever built). An
	// error from the channel run itself is infrastructure failure,
	// not a defense outcome, and must fail the trial rather than
	// masquerade as a perfect defense.
	covertRig, err := art.rig(label, ctx)
	if err != nil {
		return attackLeakage{}, err
	}
	ring := covertRig.groundTruthRing()
	if gid, ok := covert.ChooseIsolatedBuffer(ring); ok {
		symbols := stats.NewLFSR15(uint16(ctx.Seed%0x7fff)|1).Symbols(covertSymbols, covert.Ternary.Base())
		r0, err := covert.RunSingleBuffer(covertRig.spy, covertRig.groups[gid],
			symbols, covert.Ternary, len(ring), 16_500)
		if err != nil {
			return attackLeakage{}, fmt.Errorf("covert channel under %s: %w", label, err)
		}
		out.covertErr = r0.ErrorRate
		if out.covertErr > 1 {
			out.covertErr = 1
		}
		out.covertCal = r0.CalibrationOK
	}

	fpRig, err := art.rig(label, ctx)
	if err != nil {
		return attackLeakage{}, err
	}
	atk := &fingerprint.Attack{
		Spy: fpRig.spy, Groups: fpRig.groups, Ring: fpRig.groundTruthRing(), TraceLen: 100,
	}
	ev := fingerprint.EvaluateClosedWorld(atk, webtrace.ClosedWorld(), webtrace.DefaultNoise(),
		fpTrials, sim.Derive(ctx.Seed, "matrix/"+label))
	out.fpAcc, out.fpCal = ev.Accuracy(), atk.CalibrationOK()
	return out, nil
}

// DefenseEvalBudget sizes one candidate's measurement: attack-family
// sample counts and the perf workload length. The frontier trades
// per-candidate fidelity for candidate count, so its default budget is
// deliberately below the matrix experiment's.
type DefenseEvalBudget struct {
	CovertSymbols int
	FPTrials      int
	NginxRequests int
}

// DefaultEvalBudget is the per-candidate budget the search driver uses
// at each scale.
func DefaultEvalBudget(scale Scale) DefenseEvalBudget {
	if scale == Paper {
		return DefenseEvalBudget{CovertSymbols: 100, FPTrials: 20, NginxRequests: 12_000}
	}
	return DefenseEvalBudget{CovertSymbols: 60, FPTrials: 5, NginxRequests: 3_000}
}

// candidatePerf memoizes perfsim Nginx runs across candidates: the
// machine configuration (Effects fingerprint), seed, and workload size
// fully determine the deterministic result, and a 200-candidate search
// visits only a few dozen distinct machines. Guarded globally because
// the runner measures candidates from parallel workers.
//
// The seed comes from the job, so a long-running service would grow the
// memo without limit; it is emptied when it reaches candidatePerfCap
// entries. Results are pure, so emptying it changes no report byte.
var (
	candidatePerfMu    sync.Mutex
	candidatePerfCache = map[string]matrixPerf{}
)

const candidatePerfCap = 256

func candidatePerf(e perfsim.Effects, seed int64, cfg perfsim.NginxConfig) (matrixPerf, error) {
	key := fmt.Sprintf("%s|seed=%d|req=%d|rate=%g", e.Fingerprint(), seed, cfg.Requests, cfg.TargetRate)
	candidatePerfMu.Lock()
	defer candidatePerfMu.Unlock()
	if p, ok := candidatePerfCache[key]; ok {
		return p, nil
	}
	m, err := perfsim.RunNginx(e, figLLC, seed, cfg)
	if err != nil {
		return matrixPerf{}, err
	}
	p := matrixPerf{p99: m.LatencyPercentile(99), throughput: m.Throughput()}
	if len(candidatePerfCache) >= candidatePerfCap {
		clear(candidatePerfCache)
	}
	candidatePerfCache[key] = p
	return p, nil
}

// DefenseCandidateExperiment wraps one candidate defense as a phased
// experiment the runner can execute: Prepare builds the defended
// machine (plus the amplified-attacker variant when the candidate
// coarsens the timer), Measure scores leakage with the strongest
// calibrated attack and prices overhead on the composed perfsim
// machine. perfSeed is shared across every candidate of one search so
// overhead deltas are comparable (and memoized) across the whole run.
func DefenseCandidateExperiment(id string, d defense.Defense, budget DefenseEvalBudget, perfSeed int64) Experiment {
	prepare := func(ctx PrepareCtx) (*Artifact, error) {
		if err := defense.Validate(d); err != nil {
			return nil, err
		}
		art := ctx.NewArtifact()
		if err := addDefenseRigs(ctx, art, "candidate", d); err != nil {
			return nil, err
		}
		return art, nil
	}
	measure := func(ctx MeasureCtx, art *Artifact) (Result, error) {
		lk, err := defenseLeakage(ctx, art, "candidate", budget.CovertSymbols, budget.FPTrials)
		if err != nil {
			return Result{}, err
		}
		if _, ok := art.Rigs[amplifiedLabel("candidate")]; ok {
			amp, err := defenseLeakage(ctx, art, amplifiedLabel("candidate"), budget.CovertSymbols, budget.FPTrials)
			if err != nil {
				return Result{}, err
			}
			lk = strongestAttack(lk, amp)
		}

		nginxCfg := perfsim.DefaultNginxConfig()
		nginxCfg.Requests = budget.NginxRequests
		nginxCfg.TargetRate = 140_000
		base, err := candidatePerf(perfsim.Effects{}, perfSeed, nginxCfg)
		if err != nil {
			return Result{}, err
		}
		perf, err := candidatePerf(d.PerfEffects(), perfSeed, nginxCfg)
		if err != nil {
			return Result{}, err
		}
		p99Delta := (perf.p99 - base.p99) / base.p99
		tputLoss := (base.throughput - perf.throughput) / base.throughput

		res := Result{
			ID:     id,
			Title:  "frontier candidate " + d.Name(),
			Header: []string{"defense", "leakage", "p99 delta"},
			Rows: [][]string{{
				d.Name(), pct(lk.scalar()), fmt.Sprintf("%+.2f%%", 100*p99Delta),
			}},
		}
		res.AddMetric("leakage", "fraction", lk.scalar())
		res.AddMetric("chase_accuracy", "fraction", lk.chaseAcc)
		res.AddMetric("chase_calibration_ok", "bool", boolMetric(lk.chaseCal))
		res.AddMetric("covert_error", "fraction", lk.covertErr)
		res.AddMetric("covert_calibration_ok", "bool", boolMetric(lk.covertCal))
		res.AddMetric("fingerprint_accuracy", "fraction", lk.fpAcc)
		res.AddMetric("fingerprint_calibration_ok", "bool", boolMetric(lk.fpCal))
		res.AddMetric("p99_delta", "fraction", p99Delta)
		res.AddMetric("throughput_loss", "fraction", tputLoss)
		return res, nil
	}
	return phasedExp(id, "frontier candidate: "+d.Name(), prepare, measure)
}
