package testbed_test

import (
	"testing"

	"repro/internal/scenario"
	"repro/internal/testbed"
)

// BenchmarkTestbedNew builds the demo machine from scratch: fig6's inner
// loop, which builds 1000 of them. The page allocator's frame order is
// shuffled lazily, so construction pays only for the ring and skb pages
// the driver allocates, not for a shuffle of every frame in 1 GiB.
func BenchmarkTestbedNew(b *testing.B) {
	opts := scenario.Baseline(false).Options(1)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := testbed.New(opts); err != nil {
			b.Fatal(err)
		}
	}
}
