package experiments

import (
	"fmt"
	"strings"

	"repro/internal/fingerprint"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/webtrace"
)

// PrepareFig13 builds the login-fingerprint machine. Both login traces
// measure on clones of the same machine (they always ran on machines with
// identical seeds).
func PrepareFig13(ctx PrepareCtx) (*Artifact, error) {
	art := ctx.NewArtifact()
	if err := ctx.AddRig(art, "rig", machineOptions(ctx.Scale, ctx.Seed), probe.DefaultStrategy()); err != nil {
		return nil, err
	}
	return art, nil
}

// MeasureFig13 captures the hotcrp login fingerprints: the true
// packet-size classes of a successful and a failed login versus what the
// chaser recovers for the first 100 packets.
func MeasureFig13(ctx MeasureCtx, art *Artifact) (Result, error) {
	res := Result{
		ID:     "fig13",
		Title:  "hotcrp login traces: true vs recovered size classes (first 100 packets)",
		Header: []string{"trace", "classes (1..4, 4 = 4+)"},
	}
	for _, site := range []webtrace.Site{webtrace.HotCRPLoginSuccess(), webtrace.HotCRPLoginFailure()} {
		rig, ring, err := covertClone(art, "rig", ctx)
		if err != nil {
			return Result{}, err
		}
		atk := &fingerprint.Attack{Spy: rig.spy, Groups: rig.groups, Ring: ring, TraceLen: 100}
		tr := site.Generate(sim.Derive(ctx.Seed, site.Name), webtrace.DefaultNoise())
		classes, _ := atk.Observe(tr)
		truth := tr.SizeClasses(4)
		if len(truth) > 100 {
			truth = truth[:100]
		}
		res.Rows = append(res.Rows,
			[]string{site.Name + " (true)", classString(truth)},
			[]string{site.Name + " (recovered)", classString(classes)})
		res.AddMetric(slug(site.Name)+"_class_accuracy", "fraction", classAccuracy(truth, classes))
	}
	res.Notes = append(res.Notes,
		"paper shape: the successful login shows a long 4+ run (dashboard page); the failure is short and small")
	return res, nil
}

// fingerprintLabel names the per-configuration rig.
func fingerprintLabel(ddio bool) string {
	if ddio {
		return "ddio"
	}
	return "noddio"
}

// PrepareFingerprint builds the closed-world machines: one with DDIO on,
// one with it off — the offline machine shape differs, so the artifact
// store keys them separately.
func PrepareFingerprint(ctx PrepareCtx) (*Artifact, error) {
	art := ctx.NewArtifact()
	for _, ddio := range []bool{true, false} {
		opts := machineOptions(ctx.Scale, ctx.Seed)
		opts.Cache.DDIO = ddio
		if err := ctx.AddRig(art, fingerprintLabel(ddio), opts, probe.DefaultStrategy()); err != nil {
			return nil, err
		}
	}
	return art, nil
}

// MeasureFingerprint runs the §V closed-world evaluation with DDIO on and
// off.
func MeasureFingerprint(ctx MeasureCtx, art *Artifact) (Result, error) {
	trials := 40
	if ctx.Scale == Paper {
		trials = 1000
	}
	res := Result{
		ID:     "fingerprint",
		Title:  fmt.Sprintf("closed-world fingerprinting accuracy (%d trials, 5 sites)", trials),
		Header: []string{"configuration", "accuracy", "paper"},
	}
	for _, ddio := range []bool{true, false} {
		rig, err := art.rig(fingerprintLabel(ddio), ctx)
		if err != nil {
			return Result{}, err
		}
		atk := &fingerprint.Attack{
			Spy: rig.spy, Groups: rig.groups, Ring: rig.groundTruthRing(), TraceLen: 100,
		}
		ev := fingerprint.EvaluateClosedWorld(atk, webtrace.ClosedWorld(), webtrace.DefaultNoise(), trials, sim.Derive(ctx.Seed, fmt.Sprint("fp", ddio)))
		name, paper := "with DDIO", "89.7%"
		if !ddio {
			name, paper = "without DDIO", "86.5%"
		}
		res.Rows = append(res.Rows, []string{name, pct(ev.Accuracy()), paper})
		res.AddMetric(slug(name)+"_accuracy", "fraction", ev.Accuracy())
	}
	res.Notes = append(res.Notes,
		"paper shape: high closed-world accuracy, slightly lower without DDIO (coarser, noisier size recovery)")
	return res, nil
}

// classAccuracy is the fraction of positions where the recovered size
// classes match the true trace, clamping 4+ to one class the way the
// figure renders it. Length mismatches count as errors against the longer
// sequence.
func classAccuracy(truth, recovered []int) float64 {
	clamp := func(c int) int {
		if c > 4 {
			return 4
		}
		return c
	}
	n := len(truth)
	if len(recovered) > n {
		n = len(recovered)
	}
	if n == 0 {
		return 0
	}
	match := 0
	for i := 0; i < len(truth) && i < len(recovered); i++ {
		if clamp(truth[i]) == clamp(recovered[i]) {
			match++
		}
	}
	return float64(match) / float64(n)
}

func classString(classes []int) string {
	var b strings.Builder
	for _, c := range classes {
		if c >= 4 {
			b.WriteByte('4')
		} else {
			fmt.Fprintf(&b, "%d", c)
		}
	}
	return b.String()
}
