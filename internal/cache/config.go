// Package cache models the last-level cache at the center of the Packet
// Chasing attack: a sliced, set-associative, inclusive LLC with Intel-style
// complex (hashed) slice indexing, DDIO write-allocation for I/O traffic,
// and the paper's adaptive I/O partitioning defense (§VII).
//
// Every access returns its latency in cycles; the spy process accumulates
// those latencies exactly the way the real attack accumulates rdtsc deltas
// around loads. The model is deliberately single-level: the paper's
// PRIME+PROBE discriminates LLC hits from DRAM fills, and that is the only
// latency edge the attack consumes.
package cache

import "fmt"

// Config describes the cache geometry and feature set.
type Config struct {
	// Slices is the number of LLC slices (one per core on the paper's
	// Xeon E5-2660: 8).
	Slices int
	// SetsPerSlice is the number of sets in each slice (2048 on the paper
	// machine: 16384 sets total, Fig 2 shows 11 set-index bits).
	SetsPerSlice int
	// Ways is the associativity (20 on the paper machine).
	Ways int
	// HitLatency and MissLatency are the cycle costs charged to an access
	// that hits in, respectively misses, the LLC. Only the difference
	// matters to the attack; defaults approximate a Xeon (~40 vs ~200).
	HitLatency, MissLatency uint64
	// DDIO enables Data Direct I/O: DMA writes allocate directly into the
	// LLC instead of going to memory. Always on by default on the paper's
	// hardware.
	DDIO bool
	// DDIOWays caps how many ways of a set DDIO may fill (2 on Intel
	// parts; the cap limits cache pollution but does NOT stop I/O
	// allocations from evicting CPU lines — that is the vulnerability).
	DDIOWays int
	// Partition, when non-nil, enables the adaptive I/O partitioning
	// defense of §VII. It implies I/O allocations are confined to a
	// per-set quota of ways and can never evict CPU lines.
	Partition *PartitionConfig
}

// PartitionConfig parameterizes the adaptive partitioning defense exactly
// as §VII describes: a per-set I/O way quota within [MinIOWays, MaxIOWays],
// re-evaluated every Period cycles against occupancy thresholds.
type PartitionConfig struct {
	// Period is the adaptation period p in cycles (paper: 10,000).
	Period uint64
	// THigh is the occupancy threshold above which the quota grows
	// (paper: 5,000 = 0.5p).
	THigh uint64
	// TLow is the occupancy threshold below which the quota shrinks
	// (paper: 2,000 = 0.2p).
	TLow uint64
	// MinIOWays and MaxIOWays bound the quota (paper: 1 and 3).
	MinIOWays, MaxIOWays int
}

// DefaultPartitionConfig returns the §VII parameters.
func DefaultPartitionConfig() *PartitionConfig {
	return &PartitionConfig{Period: 10_000, THigh: 5_000, TLow: 2_000, MinIOWays: 1, MaxIOWays: 3}
}

// PaperConfig returns the paper machine's LLC: 20 MB, 8 slices x 2048 sets
// x 20 ways x 64 B, DDIO enabled with a 2-way cap, no defense.
func PaperConfig() Config {
	return Config{
		Slices:       8,
		SetsPerSlice: 2048,
		Ways:         20,
		HitLatency:   40,
		MissLatency:  200,
		DDIO:         true,
		DDIOWays:     2,
	}
}

// ScaledConfig returns a geometrically smaller cache with the same shape,
// for fast unit tests: slices*setsPerSlice*ways*64 bytes.
func ScaledConfig(slices, setsPerSlice, ways int) Config {
	c := PaperConfig()
	c.Slices = slices
	c.SetsPerSlice = setsPerSlice
	c.Ways = ways
	return c
}

// Validate checks structural invariants.
func (c Config) Validate() error {
	if c.Slices <= 0 || c.Slices&(c.Slices-1) != 0 {
		return fmt.Errorf("cache: slices must be a positive power of two, got %d", c.Slices)
	}
	if c.SetsPerSlice <= 0 || c.SetsPerSlice&(c.SetsPerSlice-1) != 0 {
		return fmt.Errorf("cache: sets per slice must be a positive power of two, got %d", c.SetsPerSlice)
	}
	// The LRU victim search packs a way index into the low six bits of its
	// key, above which sit stamps below 2⁵⁸ (see lruWay).
	if c.Ways <= 0 || c.Ways > 64 {
		return fmt.Errorf("cache: ways must be in 1..64, got %d", c.Ways)
	}
	if c.DDIO && (c.DDIOWays <= 0 || c.DDIOWays > c.Ways) {
		return fmt.Errorf("cache: DDIO ways %d out of range (1..%d)", c.DDIOWays, c.Ways)
	}
	if p := c.Partition; p != nil {
		if p.Period == 0 {
			return fmt.Errorf("cache: partition period must be positive")
		}
		if p.TLow > p.THigh {
			return fmt.Errorf("cache: partition TLow %d > THigh %d", p.TLow, p.THigh)
		}
		if p.MinIOWays < 1 || p.MaxIOWays >= c.Ways || p.MinIOWays > p.MaxIOWays {
			return fmt.Errorf("cache: partition way bounds [%d,%d] invalid for %d ways",
				p.MinIOWays, p.MaxIOWays, c.Ways)
		}
	}
	return nil
}

// SizeBytes returns the total cache capacity.
func (c Config) SizeBytes() int {
	return c.Slices * c.SetsPerSlice * c.Ways * 64
}

// TotalSets returns the number of sets across all slices.
func (c Config) TotalSets() int { return c.Slices * c.SetsPerSlice }
