package experiments

import (
	"fmt"
	"strings"

	"repro/internal/covert"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/stats"
)

// covertClone cuts a fresh machine clone from the artifact and derives
// the covert-channel prerequisites: groups plus the ring sequence. The
// sequence comes from the ground-truth oracle here — Table1 measures
// sequence-recovery quality separately, and the channel experiments
// measure channel quality given a recovered sequence, the same separation
// the paper uses.
func covertClone(art *Artifact, label string, ctx MeasureCtx) (*attackRig, []int, error) {
	rig, err := art.rig(label, ctx)
	if err != nil {
		return nil, nil, err
	}
	return rig, rig.groundTruthRing(), nil
}

// PrepareFig10 builds the single-buffer channel's machine.
func PrepareFig10(ctx PrepareCtx) (*Artifact, error) {
	art := ctx.NewArtifact()
	if err := ctx.AddRig(art, "rig", machineOptions(ctx.Scale, ctx.Seed), probe.DefaultStrategy()); err != nil {
		return nil, err
	}
	return art, nil
}

// MeasureFig10 transmits the paper's example sequence "2012012..." and
// shows the decoded symbols.
func MeasureFig10(ctx MeasureCtx, art *Artifact) (Result, error) {
	rig, ring, err := covertClone(art, "rig", ctx)
	if err != nil {
		return Result{}, err
	}
	symbols := make([]int, 24)
	for i := range symbols {
		symbols[i] = []int{2, 0, 1}[i%3]
	}
	res0, err := covert.RunSingleBuffer(rig.spy, rig.groups, ring, symbols, covert.Ternary, 16_500)
	if err != nil {
		return Result{}, err
	}
	fmtSyms := func(s []int) string {
		var b strings.Builder
		for _, v := range s {
			fmt.Fprintf(&b, "%d", v)
		}
		return b.String()
	}
	res := Result{
		ID:     "fig10",
		Title:  "decoded ternary stream (trojan sends 201 repeating)",
		Header: []string{"direction", "symbols"},
		Rows: [][]string{
			{"sent", fmtSyms(res0.Sent)},
			{"received", fmtSyms(res0.Received)},
		},
		Notes: []string{
			fmt.Sprintf("error rate %s; the paper's Fig 10 shows the same windowed decode on sets 1..3", pct(res0.ErrorRate)),
		},
	}
	res.AddMetric("error_rate", "fraction", res0.ErrorRate)
	res.AddMetric("symbols_sent", "symbols", float64(len(res0.Sent)))
	res.AddMetric("symbols_received", "symbols", float64(len(res0.Received)))
	return res, nil
}

// fig11Rates are the probe rates Fig 11 spans.
var fig11Rates = []float64{7_000, 14_000, 28_000}

// PrepareFig11 builds one machine per probe rate; both encodings measure
// on clones of the same per-rate machine (they always ran on machines
// with identical seeds).
func PrepareFig11(ctx PrepareCtx) (*Artifact, error) {
	art := ctx.NewArtifact()
	for _, rate := range fig11Rates {
		opts := machineOptions(ctx.Scale, ctx.Seed+int64(rate))
		if err := ctx.AddRig(art, fmt.Sprintf("rate%.0f", rate), opts, probe.DefaultStrategy()); err != nil {
			return nil, err
		}
	}
	return art, nil
}

// MeasureFig11 measures single-buffer channel bandwidth and error for
// binary and ternary encodings across probe rates of 7, 14, and 28 kHz.
func MeasureFig11(ctx MeasureCtx, art *Artifact) (Result, error) {
	res := Result{
		ID:     "fig11",
		Title:  "remote covert channel: bandwidth and error vs probe rate",
		Header: []string{"encoding", "probe-rate", "bandwidth (bps)", "error"},
	}
	nSymbols := 150
	if ctx.Scale == Paper {
		nSymbols = 400
	}
	for _, enc := range []covert.Encoding{covert.Binary, covert.Ternary} {
		for _, rate := range fig11Rates {
			rig, ring, err := covertClone(art, fmt.Sprintf("rate%.0f", rate), ctx)
			if err != nil {
				return Result{}, err
			}
			lf := stats.NewLFSR15(uint16(ctx.Seed + 1))
			symbols := lf.Symbols(nSymbols, enc.Base())
			r, err := covert.RunSingleBuffer(rig.spy, rig.groups, ring, symbols, enc, rate)
			if err != nil {
				return Result{}, err
			}
			res.Rows = append(res.Rows, []string{
				enc.String(), fmt.Sprintf("%.0f kHz", rate/1000),
				fmt.Sprintf("%.0f", r.Bandwidth), pct(r.ErrorRate),
			})
			key := fmt.Sprintf("%s_%.0fkhz", slug(enc.String()), rate/1000)
			res.AddMetric(key+"_bandwidth", "bps", r.Bandwidth)
			res.AddMetric(key+"_error", "fraction", r.ErrorRate)
		}
	}
	res.Notes = append(res.Notes,
		"paper shape: bandwidth is line-rate bound (~constant across probe rates; ternary ~3095 bps at 256 pkts/symbol);",
		"error falls as probe rate rises, binary slightly below ternary")
	return res, nil
}

// fig12abBuffers are the monitored-buffer counts Fig 12a,b spans.
var fig12abBuffers = []int{1, 2, 4, 8, 16}

// PrepareFig12ab builds one machine per monitored-buffer count.
func PrepareFig12ab(ctx PrepareCtx) (*Artifact, error) {
	art := ctx.NewArtifact()
	for _, n := range fig12abBuffers {
		opts := machineOptions(ctx.Scale, ctx.Seed+int64(n)*13)
		if err := ctx.AddRig(art, fmt.Sprintf("buffers%d", n), opts, probe.DefaultStrategy()); err != nil {
			return nil, err
		}
	}
	return art, nil
}

// MeasureFig12ab sweeps the number of monitored buffers (1..16):
// bandwidth about doubles with each doubling, error jumps at 16.
func MeasureFig12ab(ctx MeasureCtx, art *Artifact) (Result, error) {
	res := Result{
		ID:     "fig12ab",
		Title:  "multi-buffer channel: bandwidth and error vs monitored buffers",
		Header: []string{"buffers", "bandwidth (kbps)", "error"},
	}
	nSymbols := 120
	for _, n := range fig12abBuffers {
		rig, ring, err := covertClone(art, fmt.Sprintf("buffers%d", n), ctx)
		if err != nil {
			return Result{}, err
		}
		symbols := stats.NewLFSR15(uint16(7+n)).Symbols(nSymbols, 3)
		r, err := covert.RunMultiBuffer(rig.spy, rig.groups, ring, n, symbols, covert.Ternary, 56_000)
		if err != nil {
			return Result{}, err
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(n), f1(r.Bandwidth / 1000), pct(r.ErrorRate),
		})
		res.AddMetric(fmt.Sprintf("buffers%d_bandwidth", n), "kbps", r.Bandwidth/1000)
		res.AddMetric(fmt.Sprintf("buffers%d_error", n), "fraction", r.ErrorRate)
	}
	res.Notes = append(res.Notes,
		"paper shape: bandwidth ~doubles per doubling of monitored buffers (to ~24.5 kbps at 16); error jumps at 16")
	return res, nil
}

// fig12cdRates are the sender bandwidths (kbps) Fig 12c,d spans.
var fig12cdRates = []float64{80, 160, 320, 640}

// PrepareFig12cd builds one machine per sender bandwidth.
func PrepareFig12cd(ctx PrepareCtx) (*Artifact, error) {
	art := ctx.NewArtifact()
	for _, kbps := range fig12cdRates {
		opts := machineOptions(ctx.Scale, ctx.Seed+int64(kbps))
		if err := ctx.AddRig(art, fmt.Sprintf("rate%.0f", kbps), opts, probe.DefaultStrategy()); err != nil {
			return nil, err
		}
	}
	return art, nil
}

// MeasureFig12cd runs the full-chasing channel across sender bandwidths:
// out-of-sync rate stays roughly flat, error jumps once reordering sets
// in.
func MeasureFig12cd(ctx MeasureCtx, art *Artifact) (Result, error) {
	res := Result{
		ID:     "fig12cd",
		Title:  "full-chasing channel: out-of-sync and error vs channel bandwidth",
		Header: []string{"bandwidth (kbps)", "packet rate (pps)", "received", "out-of-sync", "error"},
	}
	nSymbols := 200
	for _, kbps := range fig12cdRates {
		rig, ring, err := covertClone(art, fmt.Sprintf("rate%.0f", kbps), ctx)
		if err != nil {
			return Result{}, err
		}
		packetRate := kbps * 1000 / covert.Ternary.BitsPerSymbol()
		symbols := stats.NewLFSR15(uint16(3+kbps)).Symbols(nSymbols, 3)
		ch := covert.NewChasingChannel(rig.spy, rig.groups, ring)
		r := ch.Run(symbols, covert.Ternary, packetRate, sim.Derive(ctx.Seed, "reorder"))
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%.0f", kbps), fmt.Sprintf("%.0f", packetRate),
			fmt.Sprintf("%d/%d", len(r.Received), len(r.Sent)),
			fmt.Sprint(r.OutOfSync), pct(r.ErrorRate),
		})
		key := fmt.Sprintf("rate%.0fkbps", kbps)
		res.AddMetric(key+"_out_of_sync", "events", float64(r.OutOfSync))
		res.AddMetric(key+"_error", "fraction", r.ErrorRate)
	}
	res.Notes = append(res.Notes,
		"paper shape: out-of-sync roughly flat with rate; error jumps at 640 kbps when packets begin arriving out of order",
		"each sync loss costs up to a full ring revolution of symbols, so error blows up once the rate outruns the probe loop")
	return res, nil
}
