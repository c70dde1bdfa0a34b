package experiments

import (
	"errors"
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

// This file is the shared defense evaluator. scoreDefense is the one
// scorer behind the matrix_defense experiment and every frontier search
// candidate (internal/search): same attack batteries, same calibration
// gating, same strongest-attack merge, same cost model, at a budget the
// caller chooses.

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
// rig (each family on its own fresh clone) at budget b.
func defenseLeakage(ctx MeasureCtx, art *Artifact, label string, b DefenseEvalBudget) (attackLeakage, error) {
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
	symbols := stats.NewLFSR15(uint16(ctx.Seed%0x7fff)|1).Symbols(b.CovertSymbols, covert.Ternary.Base())
	r0, err := covert.RunSingleBuffer(covertRig.spy, covertRig.groups, covertRig.groundTruthRing(),
		symbols, covert.Ternary, 16_500)
	switch {
	case errors.Is(err, covert.ErrNoIsolatedBuffer):
		// erased: out keeps error 1 and calibration true
	case err != nil:
		return attackLeakage{}, fmt.Errorf("covert channel under %s: %w", label, err)
	default:
		out.covertErr = min(r0.ErrorRate, 1)
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
		b.FPTrials, sim.Derive(ctx.Seed, "matrix/"+label))
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

// candidatePerf memoizes perfsim Nginx runs across defense cells: the
// machine configuration (Effects fingerprint), seed, and workload size
// fully determine the deterministic result, a 200-candidate search
// visits only a few dozen distinct machines, and the matrix's timer
// coarsening shares the baseline's run (a client-side mitigation costs
// the server nothing). The runner measures cells from parallel workers,
// so each key is a once-entry, as in ArtifactStore: the global lock
// guards only the map, one worker pricing a new machine never blocks
// another worker's hit on a priced one, and concurrent requests for one
// key run perfsim once.
//
// The seed comes from the job, so a long-running service would grow the
// memo without limit; it is emptied when it reaches candidatePerfCap
// entries. Results are pure, so emptying it changes no report byte.
var (
	candidatePerfMu    sync.Mutex
	candidatePerfCache = map[string]*perfEntry{}
)

const candidatePerfCap = 256

// nginxPerf is one machine's cost-axis measurement.
type nginxPerf struct {
	p99        float64
	throughput float64
}

type perfEntry struct {
	once sync.Once
	perf nginxPerf
	err  error
}

func candidatePerf(e perfsim.Effects, seed int64, cfg perfsim.NginxConfig) (nginxPerf, error) {
	key := fmt.Sprintf("%s|seed=%d|req=%d|rate=%g", e.Fingerprint(), seed, cfg.Requests, cfg.TargetRate)
	candidatePerfMu.Lock()
	ent, ok := candidatePerfCache[key]
	if !ok {
		if len(candidatePerfCache) >= candidatePerfCap {
			clear(candidatePerfCache)
		}
		ent = &perfEntry{}
		candidatePerfCache[key] = ent
	}
	candidatePerfMu.Unlock()
	ent.once.Do(func() {
		// A panic still reaches the caller whose run raised it, and the
		// later callers get the same text runTrial gives that caller's
		// trial, rather than a zero result.
		defer func() {
			if r := recover(); r != nil {
				ent.err = fmt.Errorf("panic: %v", r)
				panic(r)
			}
		}()
		m, err := perfsim.RunNginx(e, figLLC, seed, cfg)
		if err != nil {
			ent.err = err
			return
		}
		ent.perf, ent.err = nginxPerf{p99: m.LatencyPercentile(99), throughput: m.Throughput()}, nil
	})
	return ent.perf, ent.err
}

// defenseScore is one defense cell. fine is the fine-timer attacker's
// outcome and, when amplified, amp is the amplified attacker's; leakage
// is the strongest attack per family. The deltas price the composed
// machine against the undefended one.
type defenseScore struct {
	fine, amp, leakage attackLeakage
	amplified          bool
	p99Delta, tputLoss float64
}

// scoreDefense measures and prices one defense, and is what a defense
// cell means in both the matrix_defense experiment and the frontier
// search. Leakage is the strongest known attack: the fine-timer attacker
// on the rig under label and, where the artifact holds one, the
// amplified coarse-timer attacker under amplifiedLabel(label). A defense
// is only as strong as the best attack against it, and scoring timer
// coarsening against an attacker whose calibration it silently broke
// would make it look stronger than the threat model justifies. The
// artifact, not a re-derived predicate, says which cells carry an
// amplified rig, so Measure cannot diverge from what Prepare built.
// Overhead is the perfsim Nginx p99 and throughput deltas, priced
// through candidatePerf at perfSeed.
func scoreDefense(ctx MeasureCtx, art *Artifact, label string, d defense.Defense, b DefenseEvalBudget, perfSeed int64) (defenseScore, error) {
	fine, err := defenseLeakage(ctx, art, label, b)
	if err != nil {
		return defenseScore{}, err
	}
	s := defenseScore{fine: fine, leakage: fine}
	if _, ok := art.Rigs[amplifiedLabel(label)]; ok {
		s.amp, err = defenseLeakage(ctx, art, amplifiedLabel(label), b)
		if err != nil {
			return defenseScore{}, err
		}
		s.amplified = true
		s.leakage = strongestAttack(fine, s.amp)
	}

	cfg := perfsim.DefaultNginxConfig()
	cfg.Requests = b.NginxRequests
	cfg.TargetRate = 140_000
	base, err := candidatePerf(perfsim.Effects{}, perfSeed, cfg)
	if err != nil {
		return defenseScore{}, err
	}
	perf, err := candidatePerf(d.PerfEffects(), perfSeed, cfg)
	if err != nil {
		return defenseScore{}, err
	}
	s.p99Delta = (perf.p99 - base.p99) / base.p99
	s.tputLoss = (base.throughput - perf.throughput) / base.throughput
	return s, nil
}

// addLeakageMetrics emits one attack outcome's six per-family metrics
// (value and calibration health) under prefix.
func addLeakageMetrics(res *Result, prefix string, lk attackLeakage) {
	res.AddMetric(prefix+"chase_accuracy", "fraction", lk.chaseAcc)
	res.AddMetric(prefix+"chase_calibration_ok", "bool", boolMetric(lk.chaseCal))
	res.AddMetric(prefix+"covert_error", "fraction", lk.covertErr)
	res.AddMetric(prefix+"covert_calibration_ok", "bool", boolMetric(lk.covertCal))
	res.AddMetric(prefix+"fingerprint_accuracy", "fraction", lk.fpAcc)
	res.AddMetric(prefix+"fingerprint_calibration_ok", "bool", boolMetric(lk.fpCal))
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
		s, err := scoreDefense(ctx, art, "candidate", d, budget, perfSeed)
		if err != nil {
			return Result{}, err
		}
		res := Result{
			ID:     id,
			Title:  "frontier candidate " + d.Name(),
			Header: []string{"defense", "leakage", "p99 delta"},
			Rows: [][]string{{
				d.Name(), pct(s.leakage.scalar()), fmt.Sprintf("%+.2f%%", 100*s.p99Delta),
			}},
		}
		res.AddMetric("leakage", "fraction", s.leakage.scalar())
		addLeakageMetrics(&res, "", s.leakage)
		res.AddMetric("p99_delta", "fraction", s.p99Delta)
		res.AddMetric("throughput_loss", "fraction", s.tputLoss)
		return res, nil
	}
	return phasedExp(id, "frontier candidate: "+d.Name(), prepare, measure)
}
