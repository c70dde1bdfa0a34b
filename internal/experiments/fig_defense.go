package experiments

import (
	"fmt"
	"strings"

	"repro/internal/defense"
	"repro/internal/perfsim"
)

// The perf figures (14-16) are defined over the defense registry: each
// figure names its defenses and prices them through Defense.PerfEffects,
// so a new mitigation only needs a registry entry to appear on the cost
// axis.

// mustDefense resolves a registry name; the figures are defined over
// registered defenses, so a miss is a programming error.
func mustDefense(name string) defense.Defense {
	d, ok := defense.ByName(name)
	if !ok {
		panic(fmt.Sprintf("experiments: defense %q not registered", name))
	}
	return d
}

// figLabel is the paper's legend string for each defense the perf
// figures plot. Row labels and metric slugs derive from it, so these
// strings are pinned report bytes.
var figLabel = map[string]string{
	"none":               "Vulnerable Baseline (DDIO)",
	"no-ddio":            "No DDIO",
	"adaptive-partition": "Adaptive Partitioning",
	"ring-full-random":   "Fully Randomized Ring",
	"ring-partial-1k":    "Partial Randomization (1k)",
	"ring-partial-10k":   "Partial Randomization (10k)",
}

// Table2 prints the baseline processor configuration (the gem5 machine the
// paper's defense evaluation models; our perfsim models the same machine
// at memory-system granularity).
func Table2(Scale, int64) (Result, error) {
	res := Result{
		ID:     "table2",
		Title:  "baseline processor (paper Table II; substrate for Figs 14-16)",
		Header: []string{"parameter", "value", "modeled here"},
		Rows: [][]string{
			{"Frequency", "3.3 GHz", "yes (sim.Frequency)"},
			{"LLC", "20 MB, 8 slices x 2048 sets x 20 ways", "yes (cache.PaperConfig)"},
			{"DDIO way cap", "2", "yes"},
			{"Icache/Dcache", "32 KB, 8 way", "no (memory-system model only)"},
			{"Fetch/issue width", "4 fused / 6 unfused uops", "no (fixed per-request compute)"},
			{"ROB/IQ/LQ/SQ", "168 / 54 / 64 / 36 entries", "no"},
			{"Adaptation period p", "10k cycles; Thigh=5k, Tlow=2k; quota 1..3", "yes (cache.PartitionConfig)"},
		},
		Notes: []string{"core microarchitecture is abstracted into per-request compute cycles; Figs 14-16 depend on the memory system, which is modeled"},
	}
	modeled := 0
	for _, row := range res.Rows {
		if strings.HasPrefix(row[2], "yes") {
			modeled++
		}
	}
	res.AddMetric("modeled_parameters", "rows", float64(modeled))
	res.AddMetric("total_parameters", "rows", float64(len(res.Rows)))
	return res, nil
}

const (
	figLLC = 20 << 20
)

// Fig14 compares Nginx throughput under DDIO and adaptive partitioning at
// LLC sizes of 20, 11, and 8 MB.
func Fig14(scale Scale, seed int64) (Result, error) {
	requests := 6_000
	if scale == Paper {
		requests = 30_000
	}
	res := Result{
		ID:     "fig14",
		Title:  "Nginx throughput (kilo-requests/s): adaptive partitioning vs DDIO",
		Header: []string{"LLC", "DDIO (krps)", "adaptive (krps)", "loss"},
	}
	worst := 0.0
	for _, llc := range []int{20 << 20, 11 << 20, 8 << 20} {
		cfg := perfsim.DefaultNginxConfig()
		cfg.Requests = requests
		run := func(name string) float64 {
			m, err := perfsim.RunNginx(mustDefense(name).PerfEffects(), llc, seed, cfg)
			if err != nil {
				panic(err)
			}
			return m.Throughput()
		}
		d := run("none")
		a := run("adaptive-partition")
		loss := (d - a) / d
		if loss > worst {
			worst = loss
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d MB", llc>>20), f1(d / 1000), f1(a / 1000), pct(loss),
		})
		key := fmt.Sprintf("llc%dmb", llc>>20)
		res.AddMetric(key+"_ddio_throughput", "krps", d/1000)
		res.AddMetric(key+"_adaptive_throughput", "krps", a/1000)
		res.AddMetric(key+"_adaptive_loss", "fraction", loss)
	}
	res.AddMetric("worst_adaptive_loss", "fraction", worst)
	res.Notes = append(res.Notes,
		fmt.Sprintf("worst-case adaptive loss %s (paper: 2.7%% at 20 MB, <2%% average)", pct(worst)))
	return res, nil
}

// Fig15 measures normalized memory traffic and LLC miss rate for the three
// workloads under No-DDIO (the 1.0 baseline), DDIO, and adaptive
// partitioning.
func Fig15(scale Scale, seed int64) (Result, error) {
	copyBytes := 8 << 20
	packets, requests := 6_000, 4_000
	if scale == Paper {
		copyBytes = 100 << 20
		packets, requests = 40_000, 20_000
	}
	res := Result{
		ID:     "fig15",
		Title:  "normalized memory traffic and LLC miss rate (No DDIO = 1.0)",
		Header: []string{"workload", "scheme", "norm reads", "norm writes", "norm miss rate"},
	}
	workloads := []struct {
		name string
		run  func(env *perfsim.Env) perfsim.Metrics
	}{
		{"File Copy", func(env *perfsim.Env) perfsim.Metrics { return perfsim.FileCopy(env, copyBytes) }},
		{"TCP Recv", func(env *perfsim.Env) perfsim.Metrics { return perfsim.TCPRecv(env, packets) }},
		{"Nginx", func(env *perfsim.Env) perfsim.Metrics {
			cfg := perfsim.DefaultNginxConfig()
			cfg.Requests = requests
			return perfsim.Nginx(env, cfg)
		}},
	}
	for _, wl := range workloads {
		var base perfsim.Metrics
		for _, name := range []string{"no-ddio", "none", "adaptive-partition"} {
			env, err := perfsim.NewEnv(mustDefense(name).PerfEffects(), figLLC, seed)
			if err != nil {
				return Result{}, err
			}
			m := wl.run(env)
			if name == "no-ddio" {
				base = m
			}
			r, w, miss := m.NormalizedTraffic(base)
			res.Rows = append(res.Rows, []string{
				wl.name, figLabel[name], f2(r), f2(w), f2(miss),
			})
			key := slug(wl.name) + "_" + slug(figLabel[name])
			res.AddMetric(key+"_norm_reads", "ratio", r)
			res.AddMetric(key+"_norm_writes", "ratio", w)
			res.AddMetric(key+"_norm_miss_rate", "ratio", miss)
		}
	}
	res.Notes = append(res.Notes,
		"paper shape: DDIO and adaptive partitioning both cut memory traffic and miss rate vs No-DDIO;",
		"adaptive stays within ~2% of DDIO")
	return res, nil
}

// Fig16 measures HTTP response-latency percentiles for all five schemes at
// the wrk2 target rate.
func Fig16(scale Scale, seed int64) (Result, error) {
	requests := 12_000
	if scale == Paper {
		requests = 60_000
	}
	percentiles := []float64{25, 50, 90, 99, 99.9, 99.99}
	res := Result{
		ID:    "fig16",
		Title: "HTTP request latency percentiles by defense scheme (cycles)",
		Header: []string{"scheme", "p25", "p50", "p90", "p99", "p99.9", "p99.99",
			"p99 vs baseline"},
	}
	var baseP99 float64
	for _, name := range []string{
		"none", "ring-full-random", "ring-partial-1k", "ring-partial-10k",
		"adaptive-partition",
	} {
		cfg := perfsim.DefaultNginxConfig()
		cfg.Requests = requests
		cfg.TargetRate = 140_000
		m, err := perfsim.RunNginx(mustDefense(name).PerfEffects(), figLLC, seed, cfg)
		if err != nil {
			return Result{}, err
		}
		label := figLabel[name]
		row := []string{label}
		var p99 float64
		for _, p := range percentiles {
			v := m.LatencyPercentile(p)
			if p == 99 {
				p99 = v
			}
			row = append(row, fmt.Sprintf("%.0f", v))
		}
		res.AddMetric(slug(label)+"_p99_latency", "cycles", p99)
		if name == "none" {
			baseP99 = p99
			row = append(row, "baseline")
		} else {
			row = append(row, fmt.Sprintf("%+.1f%%", 100*(p99-baseP99)/baseP99))
			res.AddMetric(slug(label)+"_p99_delta", "fraction", (p99-baseP99)/baseP99)
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		"paper shape: adaptive partitioning ~+3.1% at p99; full ring randomization ~+41.8%; partial randomization in between")
	return res, nil
}
