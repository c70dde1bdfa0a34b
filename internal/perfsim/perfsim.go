// Package perfsim is the reproduction's stand-in for the paper's gem5
// full-system evaluation (§VII): a trace-driven performance model that runs
// the three I/O-heavy workloads — a 100 MB file copy, a TCP receiver with
// tiny payloads, and an Nginx-style web server under wrk2-style load —
// through the same cache model the attack uses, under each defense's
// composed Effects.
//
// The paper's Table II machine is simulated at the level that matters for
// Figs 14-16: memory traffic, LLC miss rate, and request service/queueing
// time. Absolute numbers are not comparable to gem5's; the relative effects
// (DDIO removes DMA memory traffic, adaptive partitioning costs a few
// percent, buffer randomization costs allocation work per packet) are
// structural and survive the substitution.
package perfsim

import (
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Per-packet costs of the software mitigations, in cycles, charged to the
// driver path: a fresh page allocation plus the coherent-memory descriptor
// rewrite §III-A explains is expensive. Periodic randomization pays the
// whole-ring cost every interval, amortized here.
const (
	reallocCostPerPacket = 2_000
	ringSize             = 256
)

// Env is one simulated machine instance configured for a defense's
// composed Effects (see NewEnv).
type Env struct {
	// Effects is the compositional configuration the machine was built
	// with.
	Effects Effects
	Clock   *sim.Clock
	Cache   *cache.Cache
	Alloc   *mem.Allocator
	NIC     *nic.NIC
	RNG     *sim.RNG

	// overhead is the amortized per-packet driver cost the workloads
	// charge, resolved once at construction from Effects.
	overhead uint64
}

// Metrics aggregates a workload run.
type Metrics struct {
	Workload string
	Cache    cache.Stats
	// Duration is the simulated run time in cycles.
	Duration uint64
	// Requests counts completed work units (requests, packets, or chunks).
	Requests uint64
	// Latencies are per-request response times in cycles (Nginx only).
	Latencies []uint64
}

// LatencyPercentile returns the p-th percentile of the per-request
// response times in cycles (0 when the workload records none) — the
// shared cost-axis reading of Fig 16, the defense matrix, and the
// defense example.
func (m Metrics) LatencyPercentile(p float64) float64 {
	if len(m.Latencies) == 0 {
		return 0
	}
	lat := make([]float64, len(m.Latencies))
	for i, l := range m.Latencies {
		lat[i] = float64(l)
	}
	return stats.Percentile(lat, p)
}

// Throughput returns work units per second of simulated time.
func (m Metrics) Throughput() float64 {
	if m.Duration == 0 {
		return 0
	}
	return float64(m.Requests) / sim.Seconds(m.Duration)
}

// NormalizedTraffic returns this run's memory read and write traffic and
// miss rate, each normalized to the corresponding value of base — the
// Fig 15 presentation (No-DDIO = 1.0).
func (m Metrics) NormalizedTraffic(base Metrics) (reads, writes, missRate float64) {
	norm := func(v, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(v) / float64(b)
	}
	reads = norm(m.Cache.MemReads, base.Cache.MemReads)
	writes = norm(m.Cache.MemWrites, base.Cache.MemWrites)
	if br := base.Cache.MissRate(); br > 0 {
		missRate = m.Cache.MissRate() / br
	}
	return reads, writes, missRate
}
