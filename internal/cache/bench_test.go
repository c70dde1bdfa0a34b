package cache

import (
	"testing"

	"repro/internal/sim"
)

// The cache lookup is the innermost operation of the whole simulator —
// every spy load, every DMA write, every noise access lands here. These
// benchmarks pin the per-access cost of the flat line arrays (separate tag
// and stamp slices, index math per set) that replaced the [][]line
// set-of-slices layout, and the snapshot/restore cost the warm-start clone
// path pays per trial.

// benchCache is the paper LLC geometry driven by a deterministic access
// stream wide enough to miss the covered sets regularly.
func benchCache(b *testing.B) (*Cache, []uint64) {
	b.Helper()
	c := New(PaperConfig(), sim.NewClock())
	rng := sim.Derive(1, "bench-cache")
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Int63()) &^ 63 % (1 << 28)
	}
	return c, addrs
}

func BenchmarkCacheRead(b *testing.B) {
	c, addrs := benchCache(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(addrs[i%len(addrs)])
	}
}

func BenchmarkCacheIOWrite(b *testing.B) {
	c, addrs := benchCache(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.IOWrite(addrs[i%len(addrs)])
	}
}

// BenchmarkCacheSnapshotRestore measures one warm-start machine clone of
// the cache state: with the flat line arrays both directions are two
// slice copies instead of a per-set walk.
func BenchmarkCacheSnapshotRestore(b *testing.B) {
	c, addrs := benchCache(b)
	for _, a := range addrs {
		c.Read(a)
	}
	s := c.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Restore(s)
		s = c.Snapshot()
	}
}

// BenchmarkCacheIOWritePartitioned is DMA allocation under the §VII
// adaptive partition: every write may trigger a quota re-evaluation and
// allocates inside the set's I/O ways.
func BenchmarkCacheIOWritePartitioned(b *testing.B) {
	cfg := PaperConfig()
	cfg.Partition = DefaultPartitionConfig()
	clock := sim.NewClock()
	c := New(cfg, clock)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock.Advance(50)
		c.IOWrite(uint64(i*64) % (1 << 22))
	}
}
