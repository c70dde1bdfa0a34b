package perfsim

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/nic"
	"repro/internal/stats"
)

const testLLC = 20 << 20

// The defense configurations the paper's Figs 14-16 price, as Effects.
var (
	effDDIO       = Effects{}
	effNoDDIO     = Effects{DDIOOff: true}
	effAdaptive   = Effects{Partition: cache.DefaultPartitionConfig()}
	effFullRandom = Effects{Randomize: nic.RandomizeFull}
	effPartial10k = Effects{Randomize: nic.RandomizePeriodic, RandomizeInterval: 10_000}
)

func mustEnv(t *testing.T, e Effects, llc int) *Env {
	t.Helper()
	env, err := NewEnv(e, llc, 7)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestEnvRejectsTinyLLC(t *testing.T) {
	if _, err := NewEnv(effDDIO, 1<<20, 1); err == nil {
		t.Error("1MB LLC should be rejected (below 4 ways)")
	}
}

// TestRandomizationOverheadOrdering: full randomization costs the driver
// more per packet than a 1k-packet period, which costs more than a
// 10k-packet period; the hardware-only configurations cost nothing.
func TestRandomizationOverheadOrdering(t *testing.T) {
	full := effFullRandom.OverheadPerPacket()
	p1k := Effects{Randomize: nic.RandomizePeriodic, RandomizeInterval: 1_000}.OverheadPerPacket()
	p10k := effPartial10k.OverheadPerPacket()
	if !(full > p1k && p1k > p10k && p10k > 0) {
		t.Errorf("overhead ordering broken: full=%d 1k=%d 10k=%d", full, p1k, p10k)
	}
	if effDDIO.OverheadPerPacket() != 0 || effAdaptive.OverheadPerPacket() != 0 {
		t.Error("hardware schemes have no driver overhead")
	}
}

func TestFileCopyDDIOReducesMemReads(t *testing.T) {
	// Fig 15 file copy: with DDIO the copy loop reads DMA'd lines from
	// the LLC; without, every read goes to DRAM.
	base := FileCopy(mustEnv(t, effNoDDIO, testLLC), 2<<20)
	ddio := FileCopy(mustEnv(t, effDDIO, testLLC), 2<<20)
	adaptive := FileCopy(mustEnv(t, effAdaptive, testLLC), 2<<20)

	r, _, miss := ddio.NormalizedTraffic(base)
	if r >= 0.9 {
		t.Errorf("DDIO norm read traffic %.2f; expected well below no-DDIO", r)
	}
	if miss >= 1.0 {
		t.Errorf("DDIO norm miss rate %.2f; expected below no-DDIO", miss)
	}
	ra, _, _ := adaptive.NormalizedTraffic(base)
	if ra >= 0.9 {
		t.Errorf("adaptive norm read traffic %.2f; should track DDIO", ra)
	}
	// Adaptive within a few percent of DDIO (paper: within 2%).
	if ra > r*1.15 {
		t.Errorf("adaptive read traffic %.3f too far above DDIO %.3f", ra, r)
	}
}

func TestTCPRecvTrafficShape(t *testing.T) {
	base := TCPRecv(mustEnv(t, effNoDDIO, testLLC), 4000)
	ddio := TCPRecv(mustEnv(t, effDDIO, testLLC), 4000)
	r, w, _ := ddio.NormalizedTraffic(base)
	if r >= 1.0 {
		t.Errorf("DDIO TCP recv norm reads %.2f; driver reads should hit LLC", r)
	}
	if w >= 1.0 {
		t.Errorf("DDIO TCP recv norm writes %.2f; DMA should stay in LLC", w)
	}
	if ddio.Requests != 4000 {
		t.Errorf("packets %d want 4000", ddio.Requests)
	}
}

func TestNginxThroughputAdaptiveClosesOnDDIO(t *testing.T) {
	// Fig 14: adaptive partitioning throughput within a few percent of
	// DDIO across LLC sizes.
	cfg := DefaultNginxConfig()
	cfg.Requests = 4000
	for _, llc := range []int{20 << 20, 11 << 20, 8 << 20} {
		ddio := Nginx(mustEnv(t, effDDIO, llc), cfg)
		adaptive := Nginx(mustEnv(t, effAdaptive, llc), cfg)
		dt, at := ddio.Throughput(), adaptive.Throughput()
		loss := (dt - at) / dt
		t.Logf("LLC %dMB: DDIO %.0f req/s, adaptive %.0f req/s, loss %.1f%%",
			llc>>20, dt, at, 100*loss)
		if loss > 0.08 {
			t.Errorf("LLC %dMB: adaptive loses %.1f%%; paper reports <2.7%%", llc>>20, 100*loss)
		}
		if loss < -0.05 {
			t.Errorf("LLC %dMB: adaptive should not beat DDIO by %.1f%%", llc>>20, -100*loss)
		}
	}
}

func TestNginxSmallerLLCLowersThroughput(t *testing.T) {
	cfg := DefaultNginxConfig()
	cfg.Requests = 4000
	big := Nginx(mustEnv(t, effDDIO, 20<<20), cfg)
	small := Nginx(mustEnv(t, effDDIO, 8<<20), cfg)
	if small.Throughput() >= big.Throughput() {
		t.Errorf("8MB LLC throughput %.0f should be below 20MB %.0f",
			small.Throughput(), big.Throughput())
	}
}

func TestNginxTailLatencyOrdering(t *testing.T) {
	// Fig 16: at the wrk2 target rate, full randomization has the worst
	// tail, adaptive partitioning stays close to the vulnerable baseline.
	cfg := DefaultNginxConfig()
	cfg.Requests = 12_000
	cfg.TargetRate = 140_000
	p99 := func(e Effects) float64 {
		m := Nginx(mustEnv(t, e, testLLC), cfg)
		lat := make([]float64, len(m.Latencies))
		for i, l := range m.Latencies {
			lat[i] = float64(l)
		}
		return stats.Percentile(lat, 99)
	}
	base := p99(effDDIO)
	adaptive := p99(effAdaptive)
	full := p99(effFullRandom)
	p10k := p99(effPartial10k)
	t.Logf("p99 cycles: base=%.0f adaptive=%.0f (+%.1f%%) full=%.0f (+%.1f%%) partial10k=%.0f (+%.1f%%)",
		base, adaptive, 100*(adaptive-base)/base, full, 100*(full-base)/base, p10k, 100*(p10k-base)/base)
	if full <= base {
		t.Error("full randomization must have worse p99 than baseline")
	}
	if adaptive > base*1.25 {
		t.Errorf("adaptive p99 %.0f too far above baseline %.0f; paper: +3.1%%", adaptive, base)
	}
	if full <= adaptive {
		t.Error("full randomization must be worse than adaptive partitioning")
	}
	if p10k >= full {
		t.Error("partial(10k) must be cheaper than full randomization")
	}
}

func TestAdaptiveStillBlocksAttackDuringWorkload(t *testing.T) {
	// Defense property end-to-end: even under a full Nginx run, the
	// adaptive partition never lets I/O evict a CPU line.
	cfg := DefaultNginxConfig()
	cfg.Requests = 8000
	cfg.CorpusBytes = 24 << 20 // exceed the LLC so every set is full
	m := Nginx(mustEnv(t, effAdaptive, testLLC), cfg)
	if m.Cache.IOEvictedCPU != 0 {
		t.Errorf("adaptive partitioning leaked %d CPU evictions by IO", m.Cache.IOEvictedCPU)
	}
	// With a recycled ring the driver keeps its buffer lines MRU, so the
	// vulnerable baseline displaces CPU lines mainly when something evicts
	// the IO lines between packets (that something is the spy in the
	// attack). A randomized ring forces fresh allocations every packet and
	// must show the displacement even without an adversary.
	v := Nginx(mustEnv(t, effFullRandom, testLLC), cfg)
	if v.Cache.IOEvictedCPU == 0 {
		t.Error("DDIO with randomized buffers should show IO-evicts-CPU events")
	}
}

func TestThroughputMath(t *testing.T) {
	m := Metrics{Requests: 1000, Duration: 3_300_000_000}
	if got := m.Throughput(); got != 1000 {
		t.Errorf("1000 requests in 1s = %.0f want 1000", got)
	}
	if (Metrics{}).Throughput() != 0 {
		t.Error("zero duration")
	}
}
