package probe

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/netmodel"
	"repro/internal/nic"
	"repro/internal/testbed"
)

// quietOptions returns a small, noise-free machine for deterministic tests:
// 2 slices x 128 sets x 4 ways (4 page-aligned groups).
func quietOptions(seed int64) testbed.Options {
	opts := testbed.DefaultOptions(seed)
	opts.Cache = cache.ScaledConfig(2, 128, 4)
	opts.NoiseRate = 0
	opts.TimerNoise = 0
	opts.MemBytes = 1 << 28
	return opts
}

func newSpyRig(t *testing.T, opts testbed.Options, pages int) (*testbed.Testbed, *Spy) {
	t.Helper()
	tb, err := testbed.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	spy, err := NewSpy(tb, pages)
	if err != nil {
		t.Fatal(err)
	}
	return tb, spy
}

func TestSpyCalibration(t *testing.T) {
	_, spy := newSpyRig(t, quietOptions(1), 16)
	if spy.HitLatency() >= spy.MissLatency() {
		t.Fatalf("calibration: hit %d >= miss %d", spy.HitLatency(), spy.MissLatency())
	}
}

func TestEvictsConflictTest(t *testing.T) {
	tb, spy := newSpyRig(t, quietOptions(2), 64)
	ccfg := tb.Cache().Config()
	// Oracle-built ground truth: a ways-sized set co-mapped with a victim.
	victimSet := ccfg.GlobalSet(spy.PageBase(0))
	conflicting := cache.AddrsInGlobalSet(ccfg, victimSet, ccfg.Ways, 1<<24>>6)
	if !spy.Evicts(conflicting, spy.PageBase(0)) {
		t.Error("ways co-mapped lines must evict the victim")
	}
	other := cache.AddrsInGlobalSet(ccfg, (victimSet+1)%ccfg.TotalSets(), ccfg.Ways, 1<<24>>6)
	if spy.Evicts(other, spy.PageBase(0)) {
		t.Error("lines of another set must not evict the victim")
	}
	if spy.Evicts(conflicting[:ccfg.Ways-1], spy.PageBase(0)) {
		t.Error("ways-1 lines are too few to evict under LRU")
	}
}

func TestBuildAlignedEvictionSets(t *testing.T) {
	tb, spy := newSpyRig(t, quietOptions(3), 72)
	ccfg := tb.Cache().Config()
	groups, err := spy.BuildAlignedEvictionSets(ccfg.Ways)
	if err != nil {
		t.Fatal(err)
	}
	want := ccfg.AlignedSetCount()
	if len(groups) != want {
		t.Fatalf("found %d groups want %d", len(groups), want)
	}
	seenSets := map[int]bool{}
	for _, g := range groups {
		if len(g.Lines) != ccfg.Ways {
			t.Fatalf("group %d has %d lines want %d", g.ID, len(g.Lines), ccfg.Ways)
		}
		gs := ccfg.GlobalSet(g.Lines[0])
		if ccfg.AlignedIndexOf(gs) < 0 {
			t.Fatalf("group %d maps to non-aligned set %d", g.ID, gs)
		}
		for _, a := range g.Lines {
			if ccfg.GlobalSet(a) != gs {
				t.Fatalf("group %d lines not co-mapped", g.ID)
			}
		}
		for _, m := range g.Members {
			if ccfg.GlobalSet(m) != gs {
				t.Fatalf("group %d member %#x not co-mapped", g.ID, m)
			}
		}
		if seenSets[gs] {
			t.Fatalf("two groups map to global set %d", gs)
		}
		seenSets[gs] = true
	}
}

func TestEvictionSetOffsetStaysCoMapped(t *testing.T) {
	tb, spy := newSpyRig(t, quietOptions(4), 72)
	ccfg := tb.Cache().Config()
	groups, err := spy.BuildAlignedEvictionSets(ccfg.Ways)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		for _, k := range []int{1, 2, 3} {
			shifted := g.Offset(k)
			gs := ccfg.GlobalSet(shifted.Lines[0])
			for _, a := range shifted.Lines {
				if ccfg.GlobalSet(a) != gs {
					t.Fatalf("offset %d broke co-mapping of group %d", k, g.ID)
				}
			}
		}
	}
}

func TestMonitorDetectsPacketActivity(t *testing.T) {
	opts := quietOptions(5)
	tb, spy := newSpyRig(t, opts, 72)
	ccfg := tb.Cache().Config()
	groups, err := spy.BuildAlignedEvictionSets(ccfg.Ways)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(spy, groups)

	// Idle: no activity anywhere.
	idle := m.ProbeOnce()
	idle = m.ProbeOnce() // first probe re-primes after construction
	for i, a := range idle.Active {
		if a {
			t.Fatalf("idle machine shows activity on set %d", i)
		}
	}

	// One broadcast frame: the buffer's page-aligned set must light up.
	wire := netmodel.NewWire(netmodel.GigabitRate)
	tb.SetTraffic(netmodel.NewConstantSource(wire, 256, 100_000, tb.Clock().Now(), 1))
	tb.DrainTraffic()
	busy := m.ProbeOnce()
	active := 0
	for _, a := range busy.Active {
		if a {
			active++
		}
	}
	if active == 0 {
		t.Fatal("packet DMA produced no observable activity")
	}
}

func TestMonitorReplaceSet(t *testing.T) {
	tb, spy := newSpyRig(t, quietOptions(6), 72)
	ccfg := tb.Cache().Config()
	groups, err := spy.BuildAlignedEvictionSets(ccfg.Ways)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(spy, groups)
	repl := groups[0].Offset(1)
	m.ReplaceSet(0, repl)
	// Recalibration walked the replacement's lines, not the old ones.
	for _, a := range repl.Lines {
		if !tb.Cache().Contains(a) {
			t.Fatalf("replacement line %#x was never loaded", a)
		}
	}
	s := m.ProbeOnce()
	s = m.ProbeOnce()
	if s.Active[0] {
		t.Error("replaced set should be quiet when idle")
	}
}

func TestCollectSpacing(t *testing.T) {
	tb, spy := newSpyRig(t, quietOptions(7), 72)
	ccfg := tb.Cache().Config()
	groups, _ := spy.BuildAlignedEvictionSets(ccfg.Ways)
	m := NewMonitor(spy, groups[:2])
	const interval = 100_000
	samples := m.Collect(10, interval)
	if len(samples) != 10 {
		t.Fatalf("got %d samples", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		gap := samples[i].At - samples[i-1].At
		if gap < interval {
			t.Errorf("sample %d gap %d below interval", i, gap)
		}
	}
	_ = tb
}

func TestActivityRate(t *testing.T) {
	samples := []Sample{
		{Active: []bool{true, false}},
		{Active: []bool{true, false}},
		{Active: []bool{false, false}},
		{Active: []bool{true, true}},
	}
	rates := ActivityRate(samples)
	if rates[0] != 0.75 || rates[1] != 0.25 {
		t.Errorf("rates %v", rates)
	}
	if ActivityRate(nil) != nil {
		t.Error("empty samples must give nil")
	}
}

func TestMonitorWithNoiseStaysUsable(t *testing.T) {
	// With background noise on, idle activity must stay well under 50%:
	// the channel has headroom for real signals.
	opts := quietOptions(8)
	opts.NoiseRate = 100_000
	opts.TimerNoise = 8
	tb, spy := newSpyRig(t, opts, 72)
	ccfg := tb.Cache().Config()
	groups, err := spy.BuildAlignedEvictionSets(ccfg.Ways)
	if err != nil {
		t.Fatal(err)
	}
	// With a tiny 4-group cache, noise hits monitored sets often; use the
	// rate only as a sanity bound.
	m := NewMonitor(spy, groups)
	samples := m.Collect(50, 50_000)
	rates := ActivityRate(samples)
	for i, r := range rates {
		if r > 0.9 {
			t.Errorf("set %d active %.0f%% of idle samples; threshold broken", i, r*100)
		}
	}
	_ = nic.DefaultConfig() // keep import for doc symmetry
}
