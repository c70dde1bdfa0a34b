package experiments

import (
	"fmt"

	"repro/internal/chase"
	"repro/internal/covert"
	"repro/internal/netmodel"
	"repro/internal/probe"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Sweep is a parameter-sweep experiment: a grid of scenario axes and a
// measurement run per grid cell. Where the registry experiments reproduce
// single figures, sweeps produce the paper's §VI-style sensitivity curves
// — how attack quality degrades as the environment worsens. The runner
// fans cells out over its worker pool (runner.RunSweep) with decorrelated
// per-cell seeds and aggregates per-cell metrics across trials.
//
// Sweeps are phase-split like experiments (see artifact.go): Prepare
// builds the cell's offline machines under the reference environment
// (scenario.Spec.Offline), Measure applies the cell's swept conditions to
// clones and measures. Because the offline phase depends only on machine
// geometry, every cell whose swept axes are online-only (noise rate,
// timer jitter, traffic) shares one prepared artifact across the whole
// grid — and across all trials — in a warm run.
type Sweep struct {
	ID    string
	Short string
	Grid  scenario.Grid
	// Prepare and Measure are the cell's two phases; the runner requires
	// both.
	Prepare func(ctx PrepareCtx, cell scenario.Cell) (*Artifact, error)
	Measure func(ctx MeasureCtx, art *Artifact, cell scenario.Cell) (Result, error)
	// Run is Prepare followed by Measure under one seed, the single-seed
	// reference that tests compare against. The runner never calls it;
	// it is kept because the benchmark's tracer still wraps it.
	Run func(scale Scale, seed int64, cell scenario.Cell) (Result, error)
}

// Phased reports whether the sweep has both phases, the shape the runner
// requires. Kept for the benchmark's tracer, which still branches on it.
func (s Sweep) Phased() bool { return s.Prepare != nil && s.Measure != nil }

// phasedSweep registers a sweep, deriving its Run form.
func phasedSweep(id, short string, grid scenario.Grid,
	p func(ctx PrepareCtx, cell scenario.Cell) (*Artifact, error),
	m func(ctx MeasureCtx, art *Artifact, cell scenario.Cell) (Result, error)) Sweep {
	return Sweep{
		ID: id, Short: short, Grid: grid,
		Run: func(scale Scale, seed int64, cell scenario.Cell) (Result, error) {
			art, err := p(PrepareCtx{Scale: scale, Seed: seed}, cell)
			if err != nil {
				return Result{}, err
			}
			return m(MeasureCtx{Scale: scale, Seed: seed}, art, cell)
		},
		Prepare: p, Measure: m,
	}
}

// Sweeps returns the sensitivity-study registry.
func Sweeps() []Sweep {
	return []Sweep{
		phasedSweep(
			"sens_chase_noise",
			"chase accuracy vs background cache noise",
			// The top value sits where classification has collapsed but the
			// two-class accuracy floor (~0.5) is not yet dominant: past
			// ~10M accesses/s the curve saturates and stops being a
			// sensitivity measurement.
			scenario.Grid{
				{Name: scenario.AxisNoiseRate, Values: []float64{20_000, 500_000, 2_000_000, 8_000_000}},
			},
			prepareSweepRigs, MeasureSensChaseNoise,
		),
		phasedSweep(
			"sens_chase_traffic",
			"chase accuracy vs competing background traffic",
			scenario.Grid{
				{Name: "bg_rate", Values: []float64{0, 5_000, 20_000, 50_000}},
			},
			prepareSweepRigs, MeasureSensChaseTraffic,
		),
		phasedSweep(
			"sens_covert_timer",
			"covert-channel symbol error vs timer granularity",
			// The offline phase (eviction sets, calibration) runs under the
			// reference timer, so the axis can extend past the ~100-cycle
			// point where a coarse timer used to break eviction-set
			// construction itself: only the online decode faces the jitter.
			scenario.Grid{
				{Name: scenario.AxisTimerNoise, Values: []float64{0, 4, 16, 32, 64, 128}},
			},
			prepareSweepRigs, MeasureSensCovertTimer,
		),
		phasedSweep(
			"sens_ring_detect",
			"footprint detection quality vs rx ring size",
			scenario.Grid{
				{Name: scenario.AxisRingSize, Values: []float64{16, 32, 64, 128}},
			},
			prepareSweepRigs, MeasureSensRingDetect,
		),
		phasedSweep(
			"sens_chase_defense",
			"chase accuracy vs platform defense",
			// The defense axis is categorical: registry indices with name
			// labels, so cell keys read "defense=adaptive-partition".
			// Every cell has a distinct machine (the defense reshapes it),
			// so a warm run prepares one artifact per defense rather than
			// one for the grid — the artifact key carries every option, so
			// it keys them apart even for timer coarsening, which changes
			// only TimerNoise.
			scenario.Grid{scenario.DefenseAxis()},
			prepareSweepRigs, MeasureSensChaseDefense,
		),
		phasedSweep(
			"sens_defense_noise",
			"chase accuracy vs defense x background noise (amplified attacker)",
			// The first multi-axis defense grid: a categorical defense
			// axis crossed with the ambient-noise axis, measured with the
			// strongest known (amplified) attacker. Noise is online-only,
			// so a warm run prepares one set of machines per defense and
			// shares them across the whole noise row.
			scenario.Grid{
				scenario.DefenseAxis("none", "no-ddio", "timer-coarse-64", "adaptive-partition"),
				{Name: scenario.AxisNoiseRate, Values: []float64{20_000, 2_000_000, 8_000_000}},
			},
			prepareAmplifiedSweepRigs, MeasureSensDefenseNoise,
		),
	}
}

// SweepByID returns the sweep with the given id.
func SweepByID(id string) (Sweep, bool) {
	for _, s := range Sweeps() {
		if s.ID == id {
			return s, true
		}
	}
	return Sweep{}, false
}

// sensReps is the number of independent machines averaged per sweep cell.
// Sensitivity curves compare adjacent cells, so per-cell variance must sit
// well below the axis effect; averaging a few decorrelated repetitions
// keeps demo-scale curves stable without paper-scale run times.
const sensReps = 3

// repLabel names the per-repetition rig inside a sweep artifact.
func repLabel(r int) string { return fmt.Sprintf("rep%d", r) }

// cellSpec is the scenario a cell measures under: the baseline with the
// cell's well-known axes applied.
func cellSpec(scale Scale, cell scenario.Cell) scenario.Spec {
	return baselineSpec(scale).WithCell(cell)
}

// prepareSweepRigs is the shared offline phase of every sensitivity
// sweep: sensReps machines of the cell's geometry, built under the
// reference environment (scenario.Spec.Offline) by the fine-timer
// attacker. Cells that differ only on online axes produce identical
// machine shapes and seeds, so a warm runner prepares the whole grid's
// machines exactly once.
func prepareSweepRigs(ctx PrepareCtx, cell scenario.Cell) (*Artifact, error) {
	return prepareSweepRigsStrategy(ctx, cell, probe.DefaultStrategy())
}

// prepareSweepRigsStrategy is the one offline-preparation recipe behind
// both attacker flavours; the strategy joins the artifact content
// address, so fine-timer and amplified machines never collide.
func prepareSweepRigsStrategy(ctx PrepareCtx, cell scenario.Cell, strat probe.Strategy) (*Artifact, error) {
	// Validate the cell's full measurement spec — environment and flows
	// included — before deriving the offline view, so a malformed cell
	// (negative noise rate, bad flow palette) fails fast here rather than
	// silently measuring under a normalized environment.
	full := cellSpec(ctx.Scale, cell)
	if err := full.Validate(); err != nil {
		return nil, err
	}
	spec := full.Offline()
	art := ctx.NewArtifact()
	for r := 0; r < sensReps; r++ {
		// The spec's defense acts through the options it builds, and the
		// store keys every option, so machines are keyed per mitigation
		// even when the mitigation is invisible to the option fingerprint
		// (timer coarsening): clones never cross a defense boundary.
		if err := ctx.AddRig(art, repLabel(r), spec.Options(sim.DeriveSeed(ctx.Seed, repLabel(r))), strat); err != nil {
			return nil, err
		}
	}
	return art, nil
}

// prepareAmplifiedSweepRigs is prepareSweepRigs with the amplified
// coarse-timer attacker (probe.AmplifiedStrategy) running the offline
// phase.
func prepareAmplifiedSweepRigs(ctx PrepareCtx, cell scenario.Cell) (*Artifact, error) {
	return prepareSweepRigsStrategy(ctx, cell, probe.AmplifiedStrategy())
}

// sweepClone cuts one repetition's machine from the artifact and applies
// the cell's online environment (noise rate, timer jitter, with any
// defense overrides) to it.
func sweepClone(art *Artifact, r int, ctx MeasureCtx, spec scenario.Spec) (*attackRig, error) {
	rig, err := art.rig(repLabel(r), ctx)
	if err != nil {
		return nil, err
	}
	noise, timer := spec.OnlineEnv()
	rig.tb.SetNoiseRate(noise)
	rig.tb.SetTimerNoise(timer)
	return rig, nil
}

// chaseOutcome scores one chase run: accuracy, sync losses, the
// normalized edit-operation decomposition of the observed stream against
// the sent stream (per sent symbol), the per-class confusion split, and
// whether the chaser's monitors reported healthy calibration (the
// calibration_ok metric — false means the accuracy is the accuracy of
// noise, not of a working attack).
type chaseOutcome struct {
	acc           float64
	outOfSync     float64
	ins, del, sub float64
	conf          map[int]chase.ClassConfusion
	calOK         bool
}

// chaseAccuracy runs one chase of a known alternating-size stream against
// the ground-truth ring and scores the observed size-class sequence: the
// paper's online-phase quality measure, 1 - Levenshtein/len(sent). The
// optional background source is mixed into the victim stream. The edit
// decomposition attributes the error mass: insertions are background
// packets (or pollution) read as victim symbols, deletions are victim
// packets the chase missed.
func chaseAccuracy(rig *attackRig, bg netmodel.Source, frames int) chaseOutcome {
	ring := rig.groundTruthRing()

	wire := netmodel.NewWire(netmodel.GigabitRate)
	sizes := make([]int, frames)
	sent := make([]int, frames)
	for i := range sizes {
		if i%2 == 0 {
			sizes[i] = netmodel.SizeForBlocks(4)
		} else {
			sizes[i] = netmodel.SizeForBlocks(1)
		}
		// Expected observed class: the driver's block-1 prefetch makes
		// 1-block packets read as class 2 (Fig 8's prefetch artifact).
		sent[i] = netmodel.Frame{Size: sizes[i]}.Blocks()
		if sent[i] < 2 {
			sent[i] = 2
		}
	}
	gaps := make([]uint64, frames)
	for i := range gaps {
		gaps[i] = 400_000
	}

	cfg := chase.DefaultChaserConfig()
	cfg.SyncTimeout = 2_000_000
	chaser := chase.NewChaser(rig.spy, rig.groups, ring, cfg)

	var src netmodel.Source = netmodel.NewTraceSource(wire, sizes, gaps, rig.tb.Clock().Now()+200_000)
	if bg != nil {
		src = netmodel.NewMixSource(src, bg)
	}
	rig.tb.SetTraffic(src)

	obs := chaser.Chase(frames)
	seen := chase.SizeTrace(obs)
	// One alignment feeds every derived metric: the edit distance (error
	// rate), its operation decomposition, and the per-class confusion.
	steps := stats.Align(sent, seen)
	ins, del, sub := stats.OpsFromSteps(steps)
	err := float64(ins+del+sub) / float64(len(sent))
	if err > 1 {
		err = 1
	}
	n := float64(len(sent))
	return chaseOutcome{
		acc:       1 - err,
		outOfSync: float64(chaser.OutOfSync),
		ins:       float64(ins) / n,
		del:       float64(del) / n,
		sub:       float64(sub) / n,
		conf:      chase.ConfusionFromSteps(sent, seen, steps),
		calOK:     chaser.CalibrationOK(),
	}
}

// boolMetric renders a health flag as a 0/1 metric value.
func boolMetric(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}

// chaseFrames is the victim-stream length for defense-axis chase
// measurements: three full ring revolutions. The ring-randomization
// defenses only reallocate a descriptor's buffer after it has been used,
// so a single-revolution stream (the 64-frame measurement the
// environment sweeps use) can never observe them — every packet still
// lands on its offline-learned page. Three passes let the ring churn
// under the chaser the way a long-running victim would see it.
func chaseFrames(rig *attackRig) int {
	return 3 * rig.tb.Options().NIC.RingSize
}

// chaseClasses are the size classes the alternating chase stream sends
// (the driver prefetch lifts 1-block packets to class 2; see
// chaseAccuracy), in metric order.
var chaseClasses = []int{2, 4}

// MeasureSensChaseNoise measures online-chase accuracy as ambient cache
// noise rises — the curve behind the paper's claim that the chase
// tolerates a busy server. Accuracy is monotonically non-increasing in
// the noise rate at demo scale: each decade of background
// accesses/second converts more polls into false activity until
// classification collapses.
func MeasureSensChaseNoise(ctx MeasureCtx, art *Artifact, cell scenario.Cell) (Result, error) {
	spec := cellSpec(ctx.Scale, cell)
	var accs, syncs []float64
	tp := map[int][]float64{}
	fp := map[int][]float64{}
	for r := 0; r < sensReps; r++ {
		rig, err := sweepClone(art, r, ctx, spec)
		if err != nil {
			return Result{}, err
		}
		out := chaseAccuracy(rig, nil, 64)
		accs = append(accs, out.acc)
		syncs = append(syncs, out.outOfSync)
		for _, c := range chaseClasses {
			tp[c] = append(tp[c], out.conf[c].TruePosRate())
			fp[c] = append(fp[c], out.conf[c].FalsePosRate())
		}
	}
	accSum := stats.Summarize(accs)
	header := []string{"noise (accesses/s)", "accuracy", "out-of-sync"}
	for _, c := range chaseClasses {
		header = append(header, fmt.Sprintf("c%d tp/fp", c))
	}
	res := Result{
		ID:     "sens_chase_noise",
		Title:  "chase accuracy vs background cache noise",
		Header: header,
	}
	noise, _ := cell.Value(scenario.AxisNoiseRate)
	row := []string{
		fmt.Sprintf("%.0f", noise), pct(accSum.Mean), f1(stats.Summarize(syncs).Mean),
	}
	for _, c := range chaseClasses {
		row = append(row, fmt.Sprintf("%s/%s",
			f2(stats.Summarize(tp[c]).Mean), f2(stats.Summarize(fp[c]).Mean)))
	}
	res.Rows = append(res.Rows, row)
	res.AddMetric("chase_accuracy", "fraction", accSum.Mean)
	res.AddMetric("out_of_sync", "events", stats.Summarize(syncs).Mean)
	// Per-class confusion extends the curve past the two-class accuracy
	// floor (~0.5): once classification collapses, accuracy saturates but
	// true positives keep falling and false positives keep growing with
	// insertion pressure.
	for _, c := range chaseClasses {
		res.AddMetric(fmt.Sprintf("class%d_true_pos", c), "per-sent-symbol", stats.Summarize(tp[c]).Mean)
		res.AddMetric(fmt.Sprintf("class%d_false_pos", c), "per-sent-symbol", stats.Summarize(fp[c]).Mean)
	}
	return res, nil
}

// MeasureSensChaseDefense measures online-chase accuracy under each
// platform defense — the leakage half of the paper's Table 2 / §VI-§VII
// discussion as a sweepable curve. The stock machine anchors the top;
// adaptive partitioning should push accuracy to the two-class chance
// floor (the spy no longer sees I/O evictions at all).
func MeasureSensChaseDefense(ctx MeasureCtx, art *Artifact, cell scenario.Cell) (Result, error) {
	spec := cellSpec(ctx.Scale, cell)
	var accs, syncs []float64
	for r := 0; r < sensReps; r++ {
		rig, err := sweepClone(art, r, ctx, spec)
		if err != nil {
			return Result{}, err
		}
		out := chaseAccuracy(rig, nil, chaseFrames(rig))
		accs = append(accs, out.acc)
		syncs = append(syncs, out.outOfSync)
	}
	name, _ := cell.Label(scenario.AxisDefense)
	res := Result{
		ID:     "sens_chase_defense",
		Title:  "chase accuracy vs platform defense",
		Header: []string{"defense", "accuracy", "out-of-sync"},
	}
	res.Rows = append(res.Rows, []string{
		name, pct(stats.Summarize(accs).Mean), f1(stats.Summarize(syncs).Mean),
	})
	res.AddMetric("chase_accuracy", "fraction", stats.Summarize(accs).Mean)
	res.AddMetric("out_of_sync", "events", stats.Summarize(syncs).Mean)
	return res, nil
}

// MeasureSensDefenseNoise measures online-chase accuracy over the crossed
// defense x noise grid with the amplified attacker: the defense half of
// the paper's §VI discussion evaluated in the environments a real server
// actually runs in, against the strongest known attack. The cell spec's
// OnlineEnv applies both the swept noise rate and the defense's own
// online overrides (a timer-coarsening defense keeps its coarse timer on
// the clones), and the calibration_ok metric separates "defense erased
// the signal" from "attacker went blind".
func MeasureSensDefenseNoise(ctx MeasureCtx, art *Artifact, cell scenario.Cell) (Result, error) {
	spec := cellSpec(ctx.Scale, cell)
	var accs, syncs, cals []float64
	for r := 0; r < sensReps; r++ {
		rig, err := sweepClone(art, r, ctx, spec)
		if err != nil {
			return Result{}, err
		}
		out := chaseAccuracy(rig, nil, chaseFrames(rig))
		accs = append(accs, out.acc)
		syncs = append(syncs, out.outOfSync)
		cals = append(cals, boolMetric(out.calOK))
	}
	name, _ := cell.Label(scenario.AxisDefense)
	noise, _ := cell.Value(scenario.AxisNoiseRate)
	res := Result{
		ID:     "sens_defense_noise",
		Title:  "chase accuracy vs defense x background noise (amplified attacker)",
		Header: []string{"defense", "noise (accesses/s)", "accuracy", "out-of-sync", "calibration ok"},
	}
	res.Rows = append(res.Rows, []string{
		name, fmt.Sprintf("%.0f", noise), pct(stats.Summarize(accs).Mean),
		f1(stats.Summarize(syncs).Mean), f2(stats.Summarize(cals).Mean),
	})
	res.AddMetric("chase_accuracy", "fraction", stats.Summarize(accs).Mean)
	res.AddMetric("out_of_sync", "events", stats.Summarize(syncs).Mean)
	res.AddMetric("calibration_ok", "fraction", stats.Summarize(cals).Mean)
	return res, nil
}

// MeasureSensChaseTraffic measures chase accuracy against competing
// background traffic: Poisson flows of ordinary kernel-bound packets
// share the rx ring with the victim stream, so the chaser's expected
// buffer fills with the wrong packets as the background rate grows. The
// insertion/deletion decomposition attributes the degradation: a rising
// insertion rate means background packets are being read as victim
// symbols (metric saturation), a rising deletion rate means victim
// packets are being crowded out of the monitored window.
func MeasureSensChaseTraffic(ctx MeasureCtx, art *Artifact, cell scenario.Cell) (Result, error) {
	spec := cellSpec(ctx.Scale, cell)
	rate, _ := cell.Value("bg_rate")
	if rate > 0 {
		spec.Flows = []scenario.Flow{
			{Kind: scenario.FlowPoisson, Sizes: []int{64, 128, 256}, Rate: rate, Count: -1},
		}
	}
	var accs, syncs, inss, dels, subs []float64
	for r := 0; r < sensReps; r++ {
		rig, err := sweepClone(art, r, ctx, spec)
		if err != nil {
			return Result{}, err
		}
		var bg netmodel.Source
		if rate > 0 {
			repSeed := sim.DeriveSeed(ctx.Seed, repLabel(r))
			bg = spec.BuildTraffic(repSeed, rig.tb.Clock().Now())
		}
		out := chaseAccuracy(rig, bg, 64)
		accs = append(accs, out.acc)
		syncs = append(syncs, out.outOfSync)
		inss = append(inss, out.ins)
		dels = append(dels, out.del)
		subs = append(subs, out.sub)
	}
	res := Result{
		ID:     "sens_chase_traffic",
		Title:  "chase accuracy vs competing background traffic",
		Header: []string{"bg rate (pps)", "accuracy", "out-of-sync", "ins", "del", "sub"},
	}
	res.Rows = append(res.Rows, []string{
		fmt.Sprintf("%.0f", rate), pct(stats.Summarize(accs).Mean), f1(stats.Summarize(syncs).Mean),
		f2(stats.Summarize(inss).Mean), f2(stats.Summarize(dels).Mean), f2(stats.Summarize(subs).Mean),
	})
	res.AddMetric("chase_accuracy", "fraction", stats.Summarize(accs).Mean)
	res.AddMetric("out_of_sync", "events", stats.Summarize(syncs).Mean)
	res.AddMetric("insertion_rate", "per-sent-symbol", stats.Summarize(inss).Mean)
	res.AddMetric("deletion_rate", "per-sent-symbol", stats.Summarize(dels).Mean)
	res.AddMetric("substitution_rate", "per-sent-symbol", stats.Summarize(subs).Mean)
	return res, nil
}

// MeasureSensCovertTimer measures single-buffer covert-channel symbol
// error as the spy's timer gets coarser: jitter first blurs, then swamps,
// the ~160-cycle hit/miss edge the decoder keys on. The offline phase ran
// under the reference timer, so what degrades here is purely the online
// decode — the attack's calibration is as good as it ever gets.
func MeasureSensCovertTimer(ctx MeasureCtx, art *Artifact, cell scenario.Cell) (Result, error) {
	spec := cellSpec(ctx.Scale, cell)
	nSymbols := 120
	if ctx.Scale == Paper {
		nSymbols = 300
	}
	var errs, bws []float64
	for r := 0; r < sensReps; r++ {
		rig, err := sweepClone(art, r, ctx, spec)
		if err != nil {
			return Result{}, err
		}
		ring := rig.groundTruthRing()
		gid, ok := covert.ChooseIsolatedBuffer(ring)
		if !ok {
			return Result{}, fmt.Errorf("sens_covert_timer: no isolated buffer in ring")
		}
		symbols := stats.NewLFSR15(uint16(ctx.Seed%0x7fff)|1).Symbols(nSymbols, covert.Ternary.Base())
		r0, err := covert.RunSingleBuffer(rig.spy, rig.groups[gid], symbols, covert.Ternary, len(ring), 16_500)
		if err != nil {
			return Result{}, err
		}
		errs = append(errs, r0.ErrorRate)
		bws = append(bws, r0.Bandwidth)
	}
	res := Result{
		ID:     "sens_covert_timer",
		Title:  "covert-channel symbol error vs timer jitter",
		Header: []string{"timer jitter (cycles)", "symbol error", "bandwidth (bps)"},
	}
	jitter, _ := cell.Value(scenario.AxisTimerNoise)
	res.Rows = append(res.Rows, []string{
		fmt.Sprintf("%.0f", jitter), pct(stats.Summarize(errs).Mean),
		fmt.Sprintf("%.0f", stats.Summarize(bws).Mean),
	})
	res.AddMetric("symbol_error", "fraction", stats.Summarize(errs).Mean)
	res.AddMetric("bandwidth", "bps", stats.Summarize(bws).Mean)
	return res, nil
}

// MeasureSensRingDetect measures footprint-discovery quality as the
// driver's descriptor ring grows (§VI-c floats growing the ring as a
// mitigation): precision of the flagged groups and recall of the
// buffer-hosting sets. The ring size is offline-relevant geometry, so
// each cell prepares (and a warm runner caches) its own machines.
func MeasureSensRingDetect(ctx MeasureCtx, art *Artifact, cell scenario.Cell) (Result, error) {
	spec := cellSpec(ctx.Scale, cell)
	var precs, recalls, flagged []float64
	for r := 0; r < sensReps; r++ {
		rig, err := sweepClone(art, r, ctx, spec)
		if err != nil {
			return Result{}, err
		}
		wire := netmodel.NewWire(netmodel.GigabitRate)
		fp := chase.RecoverFootprint(rig.spy, rig.groups, chase.DefaultFootprintParams(), func() {
			rig.tb.SetTraffic(netmodel.NewConstantSource(wire, 128, 200_000, rig.tb.Clock().Now(), -1))
		})
		truthSets := map[int]bool{}
		for _, s := range rig.tb.NIC().RingAlignedSets(rig.ccfg) {
			truthSets[s] = true
		}
		canon := rig.canonical()
		hits := 0
		found := map[int]bool{}
		for _, g := range fp.ActiveGroups {
			if truthSets[canon[g]] {
				hits++
				found[canon[g]] = true
			}
		}
		prec := 0.0
		if len(fp.ActiveGroups) > 0 {
			prec = float64(hits) / float64(len(fp.ActiveGroups))
		}
		precs = append(precs, prec)
		recalls = append(recalls, float64(len(found))/float64(len(truthSets)))
		flagged = append(flagged, float64(len(fp.ActiveGroups)))
	}
	res := Result{
		ID:     "sens_ring_detect",
		Title:  "footprint detection vs rx ring size",
		Header: []string{"ring size", "precision", "recall", "flagged groups"},
	}
	ring, _ := cell.Value(scenario.AxisRingSize)
	res.Rows = append(res.Rows, []string{
		fmt.Sprintf("%.0f", ring), pct(stats.Summarize(precs).Mean),
		pct(stats.Summarize(recalls).Mean), f1(stats.Summarize(flagged).Mean),
	})
	res.AddMetric("precision", "fraction", stats.Summarize(precs).Mean)
	res.AddMetric("recall", "fraction", stats.Summarize(recalls).Mean)
	res.AddMetric("flagged_groups", "groups", stats.Summarize(flagged).Mean)
	return res, nil
}
