package experiments

import (
	"fmt"

	"repro/internal/chase"
	"repro/internal/mem"
	"repro/internal/netmodel"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// Fig5 reproduces the buffer-to-set mapping of one driver instance: how
// many ring buffers land on each page-aligned cache set. The paper plots
// counts 0..5 over 256 sets; the headline features are the empty sets and
// the handful of sets hosting several buffers.
func Fig5(scale Scale, seed int64) (Result, error) {
	opts := machineOptions(scale, seed)
	tb, err := testbed.New(opts)
	if err != nil {
		return Result{}, err
	}
	ccfg := tb.Cache().Config()
	perSet := make(map[int]int)
	for _, s := range tb.NIC().RingAlignedSets(ccfg) {
		perSet[s]++
	}
	counts := stats.Histogram(func() []int {
		out := make([]int, 0, ccfg.AlignedSetCount())
		for i := 0; i < ccfg.AlignedSetCount(); i++ {
			out = append(out, perSet[i])
		}
		return out
	}())
	res := Result{
		ID:     "fig5",
		Title:  "ring buffers mapped per page-aligned cache set (one instance)",
		Header: []string{"buffers-in-set", "number-of-sets"},
	}
	maxBuf := 0
	for _, k := range sortedKeys(counts) {
		res.Rows = append(res.Rows, []string{fmt.Sprint(k), fmt.Sprint(counts[k])})
		if counts[k] > 0 && k > maxBuf {
			maxBuf = k
		}
	}
	res.AddMetric("ring_buffers", "buffers", float64(opts.NIC.RingSize))
	res.AddMetric("aligned_sets", "sets", float64(ccfg.AlignedSetCount()))
	res.AddMetric("empty_sets", "sets", float64(counts[0]))
	res.AddMetric("max_buffers_per_set", "buffers", float64(maxBuf))
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d ring buffers over %d page-aligned sets (paper: 256 over 256)",
			opts.NIC.RingSize, ccfg.AlignedSetCount()),
		"paper shape: a nonuniform spread, e.g. one set hosting 5 buffers while others host none")
	return res, nil
}

// Fig6 repeats the Fig5 measurement over many driver initializations: the
// paper reports ~35% of page-aligned sets host no buffer and >4 buffers is
// rare (5 in 1000 instances).
func Fig6(scale Scale, seed int64) (Result, error) {
	const instances = 1000
	opts := machineOptions(scale, seed)
	ccfg := opts.Cache
	al := mem.NewAllocatorShell(opts.Shape().MemBytes)
	agg := map[int]int{}
	overFour := 0
	for inst := 0; inst < instances; inst++ {
		o := opts
		o.Seed = seed + int64(inst)*7919
		pages, err := testbed.RingPages(o, al)
		if err != nil {
			return Result{}, err
		}
		perSet := make(map[int]int)
		for _, p := range pages {
			perSet[ccfg.AlignedIndexOf(ccfg.GlobalSet(uint64(p)))]++
		}
		maxBuf := 0
		for i := 0; i < ccfg.AlignedSetCount(); i++ {
			agg[perSet[i]]++
			if perSet[i] > maxBuf {
				maxBuf = perSet[i]
			}
		}
		if maxBuf > 4 {
			overFour++
		}
	}
	res := Result{
		ID:     "fig6",
		Title:  fmt.Sprintf("buffers-per-set distribution over %d instances", instances),
		Header: []string{"buffers-in-set", "sets (total)", "fraction"},
	}
	total := 0
	for _, v := range agg {
		total += v
	}
	for _, k := range sortedKeys(agg) {
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(k), fmt.Sprint(agg[k]), pct(float64(agg[k]) / float64(total)),
		})
	}
	res.AddMetric("empty_set_fraction", "fraction", float64(agg[0])/float64(total))
	res.AddMetric("instances_over_four_buffers", "instances", float64(overFour))
	res.AddMetric("instances", "instances", instances)
	res.Notes = append(res.Notes,
		fmt.Sprintf("instances with any set hosting >4 buffers: %d/%d (paper: 5/1000)", overFour, instances),
		fmt.Sprintf("empty-set fraction: %s (paper: ~35%%)", pct(float64(agg[0])/float64(total))))
	return res, nil
}

// PrepareFig7 builds the footprint-discovery machine: one baseline rig
// with its eviction sets.
func PrepareFig7(ctx PrepareCtx) (*Artifact, error) {
	art := ctx.NewArtifact()
	if err := ctx.AddRig(art, "rig", machineOptions(ctx.Scale, ctx.Seed), probe.DefaultStrategy()); err != nil {
		return nil, err
	}
	return art, nil
}

// MeasureFig7 measures page-aligned set activity with the machine idle
// versus receiving a broadcast stream — the footprint-discovery
// experiment (paper Fig 7).
func MeasureFig7(ctx MeasureCtx, art *Artifact) (Result, error) {
	rig, err := art.rig("rig", ctx)
	if err != nil {
		return Result{}, err
	}
	wire := netmodel.NewWire(netmodel.GigabitRate)
	params := chase.DefaultFootprintParams()
	fp := chase.RecoverFootprint(rig.spy, rig.groups, params, func() {
		rig.tb.SetTraffic(netmodel.NewConstantSource(wire, 128, 200_000, rig.tb.Clock().Now(), -1))
	})
	idleMean := chase.MeanRate(fp.IdleRate)
	busyMean := chase.MeanRate(fp.BusyRate)

	// Ground truth for the discovery-quality note.
	truthSets := map[int]bool{}
	for _, s := range rig.tb.NIC().RingAlignedSets(rig.ccfg) {
		truthSets[s] = true
	}
	canon := rig.canonical()
	hits := 0
	for _, g := range fp.ActiveGroups {
		if truthSets[canon[g]] {
			hits++
		}
	}
	res := Result{
		ID:     "fig7",
		Title:  "page-aligned set activity, idle vs receiving",
		Header: []string{"phase", "mean activity", "active groups"},
		Rows: [][]string{
			{"idle", pct(idleMean), "0"},
			{"receiving", pct(busyMean), fmt.Sprint(len(fp.ActiveGroups))},
		},
	}
	res.AddMetric("idle_activity", "fraction", idleMean)
	res.AddMetric("busy_activity", "fraction", busyMean)
	res.AddMetric("active_groups", "groups", float64(len(fp.ActiveGroups)))
	res.AddMetric("true_positive_groups", "groups", float64(hits))
	res.AddMetric("buffer_hosting_sets", "sets", float64(len(truthSets)))
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d/%d flagged groups host ring buffers; %d buffer-hosting sets exist",
			hits, len(fp.ActiveGroups), len(truthSets)),
		"paper shape: white columns appear on buffer sets while receiving; some sets stay dark (no buffer)")
	return res, nil
}

// PrepareFig8 builds one machine per streamed packet size (each stream
// runs on a fresh driver instance, like the paper's per-size runs).
func PrepareFig8(ctx PrepareCtx) (*Artifact, error) {
	art := ctx.NewArtifact()
	for blocks := 1; blocks <= 4; blocks++ {
		opts := machineOptions(ctx.Scale, ctx.Seed+int64(blocks))
		if err := ctx.AddRig(art, fmt.Sprintf("blocks%d", blocks), opts, probe.DefaultStrategy()); err != nil {
			return nil, err
		}
	}
	return art, nil
}

// MeasureFig8 sends constant-size streams of 1..4 blocks and measures
// activity on the block-0..3 eviction sets: activity on the diagonal and
// above, plus the block-1 prefetch artifact for 1-block packets.
func MeasureFig8(ctx MeasureCtx, art *Artifact) (Result, error) {
	res := Result{
		ID:     "fig8",
		Title:  "mean activity on block-k sets vs packet size (rows: stream size)",
		Header: []string{"stream", "block0", "block1", "block2", "block3"},
	}
	for blocks := 1; blocks <= 4; blocks++ {
		rig, err := art.rig(fmt.Sprintf("blocks%d", blocks), ctx)
		if err != nil {
			return Result{}, err
		}
		wire := netmodel.NewWire(netmodel.GigabitRate)
		rig.tb.SetTraffic(netmodel.NewConstantSource(
			wire, netmodel.SizeForBlocks(blocks), 100_000, rig.tb.Clock().Now(), -1))
		sf := chase.MeasureSizeFootprint(rig.spy, rig.groups, 4, 300, 2_000)
		row := []string{fmt.Sprintf("%d-block", blocks)}
		for k := 0; k < 4; k++ {
			rate := chase.MeanRate(sf.BlockRate[k])
			row = append(row, pct(rate))
			res.AddMetric(fmt.Sprintf("stream%d_block%d_activity", blocks, k), "fraction", rate)
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		"paper shape: activity on blocks <= stream size, none above, except 1-block streams also light block 1 (driver prefetch)")
	return res, nil
}

// table1Runs is the number of independent recovery runs Table 1 averages.
const table1Runs = 3

// PrepareTable1 builds one machine per recovery run.
func PrepareTable1(ctx PrepareCtx) (*Artifact, error) {
	art := ctx.NewArtifact()
	for run := 0; run < table1Runs; run++ {
		opts := machineOptions(ctx.Scale, ctx.Seed+int64(run)*31)
		if err := ctx.AddRig(art, fmt.Sprintf("run%d", run), opts, probe.DefaultStrategy()); err != nil {
			return nil, err
		}
	}
	return art, nil
}

// MeasureTable1 runs the full ring-sequence recovery and scores it
// against the instrumented-driver ground truth, the paper's Table I.
func MeasureTable1(ctx MeasureCtx, art *Artifact) (Result, error) {
	const runs = table1Runs
	scale := ctx.Scale
	var dists, errs, longest, minutes []float64
	params := chase.DefaultSequencerParams()
	if scale == Demo {
		params.Samples = 8_000
		params.WindowSize = 32
		params.ProbeRate = 33_000
		params.ActivityCutoff = 0.2
	}
	packetRate := 200_000.0
	if scale == Demo {
		packetRate = 11_000
	}
	for run := 0; run < runs; run++ {
		rig, err := art.rig(fmt.Sprintf("run%d", run), ctx)
		if err != nil {
			return Result{}, err
		}
		wire := netmodel.NewWire(netmodel.GigabitRate)
		rig.tb.SetTraffic(netmodel.NewConstantSource(wire, 64, packetRate, rig.tb.Clock().Now(), -1))
		seq := &chase.Sequencer{Spy: rig.spy, Groups: rig.groups, Params: params}
		t0 := rig.tb.Clock().Now()
		recovered, err := seq.RecoverFull()
		if err != nil {
			return Result{}, err
		}
		elapsed := rig.tb.Clock().Now() - t0
		canon := rig.canonical()
		rec := make([]int, len(recovered))
		keep := map[int]bool{}
		for i, g := range recovered {
			rec[i] = canon[g]
		}
		for _, c := range canon {
			keep[c] = true
		}
		truth := restrictTruth(rig.tb.NIC().RingAlignedSets(rig.ccfg), keep)
		q := chase.EvaluateCyclic(rec, truth)
		dists = append(dists, float64(q.Levenshtein))
		errs = append(errs, q.ErrorRate)
		longest = append(longest, float64(q.LongestMismatch))
		minutes = append(minutes, sim.Seconds(elapsed)/60)
	}
	ci := func(xs []float64) stats.CI { return stats.EmpiricalCI(xs, 0.9) }
	d, e, l, m := ci(dists), ci(errs), ci(longest), ci(minutes)
	res := Result{
		ID:     "table1",
		Title:  fmt.Sprintf("sequence recovery over %d runs (%s scale)", runs, scale),
		Header: []string{"measure", "value", "interval", "paper"},
		Rows: [][]string{
			{"Levenshtein distance", f1(d.Mean), fmt.Sprintf("[%s, %s]", f1(d.Low), f1(d.High)), "25.2 [22, 35]"},
			{"Error rate", pct(e.Mean), fmt.Sprintf("[%s, %s]", pct(e.Low), pct(e.High)), "9.8% [8.5, 13.6]"},
			{"Longest mismatch", f1(l.Mean), fmt.Sprintf("[%s, %s]", f1(l.Low), f1(l.High)), "5.2 [3, 9]"},
			{"Recovery time (sim-min)", f1(m.Mean), fmt.Sprintf("[%s, %s]", f1(m.Low), f1(m.High)), "159 [153, 167]"},
		},
	}
	res.AddMetric("levenshtein_distance", "edits", d.Mean)
	res.AddMetric("error_rate", "fraction", e.Mean)
	res.AddMetric("longest_mismatch", "symbols", l.Mean)
	res.AddMetric("recovery_time", "sim-min", m.Mean)
	res.Notes = append(res.Notes,
		fmt.Sprintf("params: %d samples/window, %d-set windows, %.0f pkt/s, %.0f probes/s",
			params.Samples, params.WindowSize, packetRate, params.ProbeRate))
	return res, nil
}
