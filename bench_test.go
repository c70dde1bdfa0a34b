package repro

// Benchmarks regenerate scaled versions of every table and figure in the
// paper's evaluation (one benchmark per artifact, named after it) plus a
// sequence-distance microbenchmark. Shapes — who wins, by what
// factor — are reported through b.ReportMetric; absolute wall-clock time
// of a benchmark iteration is simulation cost, not a paper metric.
//
// Run: go test -bench=. -benchmem
import (
	"testing"

	"repro/internal/cache"
	"repro/internal/chase"
	"repro/internal/covert"
	"repro/internal/experiments"
	"repro/internal/fingerprint"
	"repro/internal/netmodel"
	"repro/internal/perfsim"
	"repro/internal/probe"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/testbed"
	"repro/internal/webtrace"
)

// --- microbenchmarks ---
//
// The substrate hot paths (cache access, NIC receive, probe walk, eviction-
// set construction) are benchmarked in their own packages
// (internal/{cache,nic,probe}/bench_test.go), where CI runs them.

func BenchmarkLevenshtein256(b *testing.B) {
	rng := sim.NewRNG(1)
	x := make([]int, 256)
	y := make([]int, 256)
	for i := range x {
		x[i], y[i] = rng.Intn(64), rng.Intn(64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.Levenshtein(x, y)
	}
}

// --- one benchmark per paper artifact ---

// benchExperiment runs a registered experiment once per iteration.
func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(experiments.Demo, int64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig05BufferMapping(b *testing.B)    { benchExperiment(b, "fig5") }
func BenchmarkFig07ReceiveFootprint(b *testing.B) { benchExperiment(b, "fig7") }
func BenchmarkFig08SizeDetection(b *testing.B)    { benchExperiment(b, "fig8") }
func BenchmarkMatrixDefense(b *testing.B)         { benchExperiment(b, "matrix_defense") }

func BenchmarkFig06MappingDistribution(b *testing.B) {
	// Fig 6 at bench scale: 100 driver instances per iteration.
	for i := 0; i < b.N; i++ {
		empty, total := 0, 0
		for inst := 0; inst < 100; inst++ {
			opts := testbed.DefaultOptions(int64(i*100 + inst))
			opts.Cache = cache.ScaledConfig(2, 2048, 8)
			opts.NIC.RingSize = 64
			tb, err := testbed.New(opts)
			if err != nil {
				b.Fatal(err)
			}
			ccfg := tb.Cache().Config()
			seen := map[int]bool{}
			for _, s := range tb.NIC().RingAlignedSets(ccfg) {
				seen[s] = true
			}
			empty += ccfg.AlignedSetCount() - len(seen)
			total += ccfg.AlignedSetCount()
		}
		b.ReportMetric(100*float64(empty)/float64(total), "empty-sets-%")
	}
}

func BenchmarkTable1SequenceRecovery(b *testing.B) {
	// One windowed recovery per iteration (full recovery is the table1
	// experiment; a single window keeps the bench under a second).
	for i := 0; i < b.N; i++ {
		opts := testbed.DefaultOptions(int64(i) + 22)
		opts.Cache = cache.ScaledConfig(2, 1024, 4)
		opts.NIC.RingSize = 32
		opts.NoiseRate = 0
		opts.TimerNoise = 0
		tb, err := testbed.New(opts)
		if err != nil {
			b.Fatal(err)
		}
		spy, err := probe.NewSpy(tb, 32*4*4)
		if err != nil {
			b.Fatal(err)
		}
		groups, err := spy.BuildAlignedEvictionSets(4)
		if err != nil {
			b.Fatal(err)
		}
		wire := netmodel.NewWire(netmodel.GigabitRate)
		tb.SetTraffic(netmodel.NewConstantSource(wire, 64, 11_000, tb.Clock().Now(), -1))
		seq := &chase.Sequencer{Spy: spy, Groups: groups, Params: chase.SequencerParams{
			Samples: 6_000, WindowSize: len(groups), ProbeRate: 33_000,
			ActivityCutoff: 0.2, WeightCutoff: 3,
		}}
		ids := make([]int, len(groups))
		for j := range ids {
			ids[j] = j
		}
		rec, err := seq.RecoverWindow(ids)
		if err != nil {
			b.Fatal(err)
		}
		ccfg := tb.Cache().Config()
		canon := make([]int, len(rec))
		byID := map[int]int{}
		for _, g := range groups {
			byID[g.ID] = ccfg.AlignedIndexOf(ccfg.GlobalSet(g.Lines[0]))
		}
		for j, gid := range rec {
			canon[j] = byID[gid]
		}
		truth := chase.CollapseRuns(tb.NIC().RingAlignedSets(ccfg))
		q := chase.EvaluateCyclic(canon, truth)
		b.ReportMetric(100*q.ErrorRate, "seq-error-%")
	}
}

// covertBenchRig builds the covert-channel prerequisites once per bench.
func covertBenchRig(b *testing.B, seed int64) (*probe.Spy, []probe.EvictionSet, []int) {
	b.Helper()
	opts := testbed.DefaultOptions(seed)
	opts.Cache = cache.ScaledConfig(2, 1024, 4)
	opts.NIC.RingSize = 32
	opts.NoiseRate = 0
	opts.TimerNoise = 0
	tb, err := testbed.New(opts)
	if err != nil {
		b.Fatal(err)
	}
	spy, err := probe.NewSpy(tb, 32*4*4)
	if err != nil {
		b.Fatal(err)
	}
	groups, err := spy.BuildAlignedEvictionSets(4)
	if err != nil {
		b.Fatal(err)
	}
	ccfg := tb.Cache().Config()
	byCanon := map[int]int{}
	for _, g := range groups {
		byCanon[ccfg.AlignedIndexOf(ccfg.GlobalSet(g.Lines[0]))] = g.ID
	}
	var ring []int
	for _, s := range tb.NIC().RingAlignedSets(ccfg) {
		ring = append(ring, byCanon[s])
	}
	return spy, groups, ring
}

func BenchmarkFig11CovertChannel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spy, groups, ring := covertBenchRig(b, int64(i)+31)
		gid, ok := covert.ChooseIsolatedBuffer(ring)
		if !ok {
			continue
		}
		symbols := stats.NewLFSR15(uint16(i+7)).Symbols(60, 3)
		res, err := covert.RunSingleBuffer(spy, groups[gid], symbols, covert.Ternary, len(ring), 28_000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Bandwidth, "bps")
		b.ReportMetric(100*res.ErrorRate, "error-%")
	}
}

func BenchmarkFig12MultiBuffer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spy, groups, ring := covertBenchRig(b, int64(i)+33)
		symbols := stats.NewLFSR15(uint16(i+9)).Symbols(48, 3)
		res, err := covert.RunMultiBuffer(spy, groups, ring, 4, symbols, covert.Ternary, 56_000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Bandwidth/1000, "kbps")
	}
}

func BenchmarkFig12Chasing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spy, groups, ring := covertBenchRig(b, int64(i)+34)
		symbols := stats.NewLFSR15(uint16(i+11)).Symbols(100, 3)
		ch := covert.NewChasingChannel(spy, groups, ring)
		res := ch.Run(symbols, covert.Ternary, 20_000, sim.NewRNG(int64(i)))
		b.ReportMetric(100*res.ErrorRate, "error-%")
		b.ReportMetric(100*covert.OutOfSyncRate(res), "oos-%")
	}
}

func BenchmarkSecVFingerprint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spy, groups, ring := covertBenchRig(b, int64(i)+42)
		atk := &fingerprint.Attack{Spy: spy, Groups: groups, Ring: ring, TraceLen: 60}
		res := fingerprint.EvaluateClosedWorld(atk, webtrace.ClosedWorld(),
			webtrace.DefaultNoise(), 10, sim.NewRNG(int64(i)+7))
		b.ReportMetric(100*res.Accuracy(), "accuracy-%")
	}
}

func BenchmarkFig14NginxThroughput(b *testing.B) {
	cfg := perfsim.DefaultNginxConfig()
	cfg.Requests = 2_000
	for i := 0; i < b.N; i++ {
		ddio, err := perfsim.NewEnv(perfsim.SchemeDDIO, 20<<20, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		adaptive, err := perfsim.NewEnv(perfsim.SchemeAdaptive, 20<<20, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		d := perfsim.Nginx(ddio, cfg).Throughput()
		a := perfsim.Nginx(adaptive, cfg).Throughput()
		b.ReportMetric(100*(d-a)/d, "adaptive-loss-%")
	}
}

func BenchmarkFig15MemTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, err := perfsim.NewEnv(perfsim.SchemeNoDDIO, 20<<20, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		ddio, err := perfsim.NewEnv(perfsim.SchemeDDIO, 20<<20, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		mb := perfsim.FileCopy(base, 2<<20)
		md := perfsim.FileCopy(ddio, 2<<20)
		r, _, _ := md.NormalizedTraffic(mb)
		b.ReportMetric(r, "ddio-norm-reads")
	}
}

func BenchmarkFig16TailLatency(b *testing.B) {
	cfg := perfsim.DefaultNginxConfig()
	cfg.Requests = 6_000
	cfg.TargetRate = 140_000
	p99 := func(s perfsim.Scheme, seed int64) float64 {
		env, err := perfsim.NewEnv(s, 20<<20, seed)
		if err != nil {
			b.Fatal(err)
		}
		m := perfsim.Nginx(env, cfg)
		lat := make([]float64, len(m.Latencies))
		for i, l := range m.Latencies {
			lat[i] = float64(l)
		}
		return stats.Percentile(lat, 99)
	}
	for i := 0; i < b.N; i++ {
		base := p99(perfsim.SchemeDDIO, int64(i))
		full := p99(perfsim.SchemeFullRandom, int64(i))
		adaptive := p99(perfsim.SchemeAdaptive, int64(i))
		b.ReportMetric(100*(full-base)/base, "fullrand-p99-+%")
		b.ReportMetric(100*(adaptive-base)/base, "adaptive-p99-+%")
	}
}

// --- experiment runner ---

// benchRunnerSweep runs a cheap three-experiment, four-trial sweep at
// the given pool width; compare Serial vs Parallel with benchstat to see
// the fan-out win.
func benchRunnerSweep(b *testing.B, parallel int) {
	var sel []experiments.Experiment
	for _, id := range []string{"fig5", "fig7", "table2"} {
		e, ok := experiments.ByID(id)
		if !ok {
			b.Fatalf("unknown experiment %s", id)
		}
		sel = append(sel, e)
	}
	r := runner.New(runner.Config{Parallel: parallel})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := r.Run(sel, runner.Job{
			Scale: experiments.Demo, Seed: int64(i) + 1, Trials: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Failed() > 0 {
			b.Fatalf("%d experiments failed", rep.Failed())
		}
	}
}

func BenchmarkRunnerSweepSerial(b *testing.B)   { benchRunnerSweep(b, 1) }
func BenchmarkRunnerSweepParallel(b *testing.B) { benchRunnerSweep(b, 0) }

// --- ablations (DESIGN.md section 5) ---

func BenchmarkAblationDDIOWays(b *testing.B) {
	// DDIO way-cap sweep: more I/O ways means more CPU evictions under a
	// randomized ring (leak magnitude).
	for i := 0; i < b.N; i++ {
		for _, ways := range []int{1, 2, 4} {
			ccfg := cache.ScaledConfig(2, 512, 8)
			ccfg.DDIOWays = ways
			clock := sim.NewClock()
			c := cache.New(ccfg, clock)
			// Fill with CPU lines, then stream I/O at fresh addresses so
			// every DMA write must allocate (and evict someone).
			for a := uint64(0); a < 1<<19; a += 64 {
				c.Read(a)
			}
			rng := sim.NewRNG(int64(i))
			for p := 0; p < 3000; p++ {
				c.IOWrite(uint64(1<<19) + uint64(rng.Intn(1<<19)))
			}
			if ways == 2 {
				b.ReportMetric(float64(c.Stats().IOEvictedCPU), "cpu-evictions-2way")
			}
		}
	}
}

func BenchmarkAblationRingSize(b *testing.B) {
	// §VI-c: a larger ring forces the attacker to probe more sets.
	for i := 0; i < b.N; i++ {
		for _, ring := range []int{32, 64} {
			opts := testbed.DefaultOptions(int64(i))
			opts.Cache = cache.ScaledConfig(2, 2048, 8)
			opts.NIC.RingSize = ring
			tb, err := testbed.New(opts)
			if err != nil {
				b.Fatal(err)
			}
			ccfg := tb.Cache().Config()
			seen := map[int]bool{}
			for _, s := range tb.NIC().RingAlignedSets(ccfg) {
				seen[s] = true
			}
			if ring == 64 {
				b.ReportMetric(float64(len(seen)), "sets-to-probe-64ring")
			}
		}
	}
}

func BenchmarkAblationRandomizationInterval(b *testing.B) {
	// §VI-b: randomization interval vs driver overhead (amortized).
	for i := 0; i < b.N; i++ {
		b.ReportMetric(float64(perfsim.RandomizationOverhead(perfsim.SchemeFullRandom)), "full-cyc/pkt")
		b.ReportMetric(float64(perfsim.RandomizationOverhead(perfsim.SchemePartial1k)), "p1k-cyc/pkt")
		b.ReportMetric(float64(perfsim.RandomizationOverhead(perfsim.SchemePartial10k)), "p10k-cyc/pkt")
	}
}
