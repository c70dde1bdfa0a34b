package perfsim

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/nic"
)

func TestComposeSemantics(t *testing.T) {
	ddio := Effects{DDIOOff: true}
	part := Effects{Partition: cache.DefaultPartitionConfig()}
	rand1k := Effects{Randomize: nic.RandomizePeriodic, RandomizeInterval: 1_000}
	full := Effects{Randomize: nic.RandomizeFull}

	got := ddio.Compose(part).Compose(rand1k)
	if !got.DDIOOff || got.Partition == nil || got.Randomize != nic.RandomizePeriodic || got.RandomizeInterval != 1_000 {
		t.Fatalf("compose dropped a disjoint mechanism: %+v", got)
	}
	// DDIOOff is sticky; same-type randomization layers are last-wins,
	// mirroring Stack.Apply's field-overwrite semantics.
	if g := got.Compose(Effects{}); !g.DDIOOff {
		t.Fatalf("DDIOOff not sticky under composition: %+v", g)
	}
	if g := rand1k.Compose(full); g.Randomize != nic.RandomizeFull {
		t.Fatalf("same-type compose not last-wins: %+v", g)
	}
	// Compose copies partition configs instead of aliasing the argument.
	p := cache.DefaultPartitionConfig()
	g := Effects{}.Compose(Effects{Partition: p})
	p.MaxIOWays = 99
	if g.Partition.MaxIOWays == 99 {
		t.Fatal("compose aliased the caller's partition config")
	}
}

func TestOverheadPerPacketExact(t *testing.T) {
	cases := []struct {
		e    Effects
		want uint64
	}{
		{Effects{}, 0},
		{Effects{DDIOOff: true}, 0},
		{Effects{Partition: cache.DefaultPartitionConfig()}, 0},
		{Effects{Randomize: nic.RandomizeFull}, reallocCostPerPacket},
		{Effects{Randomize: nic.RandomizePeriodic, RandomizeInterval: 1_000}, 512},
		{Effects{Randomize: nic.RandomizePeriodic, RandomizeInterval: 10_000}, 51},
		// The exact amortized function, not the nearest-of-three bucket:
		// a 2k interval costs half the 1k interval, not the 1k bucket.
		{Effects{Randomize: nic.RandomizePeriodic, RandomizeInterval: 2_000}, 256},
		{Effects{Randomize: nic.RandomizePeriodic, RandomizeInterval: 4_000}, 128},
	}
	for _, c := range cases {
		if got := c.e.OverheadPerPacket(); got != c.want {
			t.Errorf("%s: overhead %d, want %d", c.e.Fingerprint(), got, c.want)
		}
	}
}

// TestComposedStackCostsMore pins the compositional property the
// frontier's overhead axis depends on: a machine running partition AND
// randomization together costs strictly more than either mechanism
// alone — the dominant-layer approximation this model replaces would
// price the stack as its costliest member and drop the interaction.
func TestComposedStackCostsMore(t *testing.T) {
	cfg := DefaultNginxConfig()
	cfg.Requests = 3_000
	cfg.TargetRate = 140_000

	part := Effects{Partition: cache.DefaultPartitionConfig()}
	rand := Effects{Randomize: nic.RandomizeFull}
	both := part.Compose(rand)

	p99 := func(e Effects) float64 {
		m, err := RunNginx(e, 20<<20, 7, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m.LatencyPercentile(99)
	}
	base := p99(Effects{})
	pp, rp, bp := p99(part), p99(rand), p99(both)
	if !(pp > base) || !(rp > base) {
		t.Fatalf("each layer alone should cost something: base %.0f, partition %.0f, randomization %.0f", base, pp, rp)
	}
	if !(bp > pp && bp > rp) {
		t.Fatalf("composed stack must cost strictly more than either layer alone: partition %.0f, randomization %.0f, both %.0f", pp, rp, bp)
	}
}
