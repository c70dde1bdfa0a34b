package covert

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/netmodel"
	"repro/internal/nic"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// covertWorld builds a small machine plus the offline-phase outputs the
// covert channel needs: the aligned groups and the ground-truth ring (in
// group ids), standing in for a completed sequence recovery.
func covertWorld(t *testing.T, seed int64, noise float64) (*probe.Spy, []probe.EvictionSet, []int) {
	t.Helper()
	opts := testbed.DefaultOptions(seed)
	opts.Cache = cache.ScaledConfig(2, 1024, 4)
	opts.NIC = nic.DefaultConfig()
	opts.NIC.RingSize = 32
	opts.NoiseRate = noise
	opts.TimerNoise = 0
	opts.MemBytes = 1 << 28
	tb, err := testbed.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	spy, err := probe.NewSpy(tb, 32*4*4)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := spy.BuildAlignedEvictionSets(opts.Cache.Ways)
	if err != nil {
		t.Fatal(err)
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

func TestEncodingProperties(t *testing.T) {
	if Binary.Base() != 2 || Ternary.Base() != 3 {
		t.Error("alphabet sizes wrong")
	}
	if Binary.BitsPerSymbol() != 1 {
		t.Error("binary bits/symbol")
	}
	if Ternary.BitsPerSymbol() < 1.58 || Ternary.BitsPerSymbol() > 1.59 {
		t.Error("ternary bits/symbol")
	}
	if symbolBlocks(0) != 1 || symbolBlocks(1) != 3 || symbolBlocks(2) != 4 {
		t.Error("symbol block mapping broken")
	}
	if wireSymbol(Binary, 1) != 2 || wireSymbol(Ternary, 1) != 1 {
		t.Error("wire symbol mapping broken")
	}
}

func TestIsolatedPositions(t *testing.T) {
	if got := isolatedPositions([]int{3, 5, 3, 7, 9}); !slices.Equal(got, []int{1, 3, 4}) {
		t.Errorf("got %v; want positions 1, 3, 4 (group 3 appears twice)", got)
	}
	if got := isolatedPositions([]int{1, 1, 2, 2}); len(got) != 0 {
		t.Errorf("got %v; no isolated buffer exists", got)
	}
}

// TestSingleBufferNoIsolatedBuffer: a ring in which every group hosts two
// buffers cannot carry the single-buffer channel, and says so with
// ErrNoIsolatedBuffer before any monitor is built or time is spent.
func TestSingleBufferNoIsolatedBuffer(t *testing.T) {
	spy, groups, ring := covertWorld(t, 31, 0)
	doubled := append(slices.Clone(ring), ring...)
	before := spy.Testbed().Clock().Now()
	_, err := RunSingleBuffer(spy, groups, doubled, []int{0, 1, 2}, Ternary, 28_000)
	if !errors.Is(err, ErrNoIsolatedBuffer) {
		t.Fatalf("err = %v; want ErrNoIsolatedBuffer", err)
	}
	if now := spy.Testbed().Clock().Now(); now != before {
		t.Errorf("clock moved %d cycles on a ring with no isolated buffer", now-before)
	}
	if _, err := RunSingleBuffer(spy, groups, ring, nil, Ternary, 28_000); err == nil || errors.Is(err, ErrNoIsolatedBuffer) {
		t.Errorf("no symbols: err = %v; want a distinct error", err)
	}
}

func TestSelectSpacedBuffers(t *testing.T) {
	ring := []int{0, 1, 2, 3, 4, 5, 6, 7}
	sel, err := selectSpacedBuffers(ring, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 4 {
		t.Fatalf("selected %d", len(sel))
	}
	if _, err := selectSpacedBuffers([]int{1, 1}, 2); err == nil {
		t.Error("expected failure with no isolated buffers")
	}
}

// TestTrojanSourcePacing pins the trojan's frame stream: every symbol is
// a burst of packetsPerSymbol unknown frames of the symbol's size, bursts
// start one frame period apart, and at one packet per symbol the stream
// is exactly one wire send per period.
func TestTrojanSourcePacing(t *testing.T) {
	const start = 1_000
	for _, enc := range []Encoding{Binary, Ternary} {
		symbols := []int{0, 1, 1, 0, 1}
		if enc == Ternary {
			symbols = []int{0, 2, 1, 2, 0}
		}
		period := 10 * BurstWireTime(3, netmodel.GigabitRate)
		frames := netmodel.Collect(NewTrojanSource(netmodel.NewWire(netmodel.GigabitRate), symbols, enc, 3, period, start), 100)
		if len(frames) != 3*len(symbols) {
			t.Fatalf("%v: %d frames for %d symbols x 3", enc, len(frames), len(symbols))
		}
		for i, f := range frames {
			s := symbols[i/3]
			if want := netmodel.SizeForBlocks(symbolBlocks(wireSymbol(enc, s))); f.Size != want {
				t.Errorf("%v frame %d: size %d, want %d for symbol %d", enc, i, f.Size, want, s)
			}
			if f.Known {
				t.Errorf("%v frame %d: trojan frames must be unknown broadcasts", enc, i)
			}
			if slot := start + uint64(i/3)*period; i%3 == 0 && f.Arrival-netmodel.WireTime(f.Size, netmodel.GigabitRate) != slot {
				t.Errorf("%v frame %d: burst starts at %d, want slot %d", enc, i, f.Arrival-netmodel.WireTime(f.Size, netmodel.GigabitRate), slot)
			}
		}

		period = sim.CyclesPerSecond(500_000)
		got := netmodel.Collect(NewTrojanSource(netmodel.NewWire(netmodel.GigabitRate), symbols, enc, 1, period, start), 100)
		ref := netmodel.NewWire(netmodel.GigabitRate)
		var want []netmodel.Frame
		at := uint64(start)
		for _, s := range symbols {
			want = append(want, ref.Send(netmodel.SizeForBlocks(symbolBlocks(wireSymbol(enc, s))), at, false))
			at += period
		}
		if !slices.Equal(got, want) {
			t.Errorf("%v: one packet per symbol sent %+v, want one frame per period %+v", enc, got, want)
		}
	}
}

func TestDecodeFrames(t *testing.T) {
	mk := func(at uint64, clk, d2, d3 bool) probe.Sample {
		return probe.Sample{At: at, Active: []bool{clk, d2, d3}}
	}
	frame := uint64(1000)
	samples := []probe.Sample{
		mk(0, false, false, false),
		mk(200, true, false, false), // frame 0: symbol 0
		mk(400, false, false, false),
		mk(1100, true, true, false), // frame 1: symbol 1
		mk(1300, true, true, false), // wide peak, same frame: ignored
		mk(2200, true, true, true),  // frame 2: symbol 2
	}
	if got, want := decodeFrames(samples, 1, frame, 1), []int{0, 1, 2}; !slices.Equal(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
	if decodeFrames(nil, 1, frame, 1) != nil {
		t.Error("empty samples")
	}

	// Two buffers: each has its own clock and slot bookkeeping, and a
	// buffer's data sets are read only within the window of its own clock
	// hit.
	mk2 := func(at uint64, a, b [3]bool) probe.Sample {
		return probe.Sample{At: at, Active: append(a[:], b[:]...)}
	}
	var idle [3]bool
	samples2 := []probe.Sample{
		mk2(0, idle, idle),
		mk2(100, [3]bool{true, false, false}, idle), // slot 0, buffer 0: symbol 0 (buffer 1's data is not its own)
		mk2(200, idle, [3]bool{false, true, true}),  // buffer 1 data, no clock
		mk2(300, [3]bool{true, true, true}, idle),   // wide peak of buffer 0: ignored
		mk2(400, idle, idle),
		mk2(600, idle, [3]bool{true, false, false}), // slot 1, buffer 1: symbol 0 (its data is out of window)
		mk2(700, idle, idle),
		mk2(1100, [3]bool{true, true, false}, [3]bool{true, true, true}), // slot 2: buffer 0 symbol 1, buffer 1 symbol 2
		mk2(1200, idle, idle),
		mk2(1600, idle, [3]bool{true, false, false}), // slot 3, buffer 1: symbol 0
	}
	if got, want := decodeFrames(samples2, 2, 500, 1), []int{0, 0, 1, 2, 0}; !slices.Equal(got, want) {
		t.Errorf("two buffers: got %v want %v", got, want)
	}
}

func TestSingleBufferTernaryRoundTrip(t *testing.T) {
	spy, groups, ring := covertWorld(t, 31, 0)
	symbols := stats.NewLFSR15(7).Symbols(60, 3)
	res, err := RunSingleBuffer(spy, groups, ring, symbols, Ternary, 28_000)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("ternary: bw=%.0f bps err=%.1f%%", res.Bandwidth, 100*res.ErrorRate)
	if res.ErrorRate > 0.10 {
		t.Errorf("quiet-machine ternary error %.1f%% too high", 100*res.ErrorRate)
	}
	if res.Bandwidth < 100 {
		t.Errorf("bandwidth %.0f implausibly low", res.Bandwidth)
	}
}

func TestSingleBufferBinaryRoundTrip(t *testing.T) {
	spy, groups, ring := covertWorld(t, 32, 0)
	bits := stats.NewLFSR15(3).Bits(60)
	res, err := RunSingleBuffer(spy, groups, ring, bits, Binary, 28_000)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("binary: bw=%.0f bps err=%.1f%%", res.Bandwidth, 100*res.ErrorRate)
	if res.ErrorRate > 0.10 {
		t.Errorf("quiet-machine binary error %.1f%% too high", 100*res.ErrorRate)
	}
}

func TestMultiBufferScalesBandwidth(t *testing.T) {
	var prev float64
	for _, n := range []int{1, 2, 4} {
		spy, groups, ring := covertWorld(t, 33, 0)
		symbols := stats.NewLFSR15(9).Symbols(48, 3)
		res, err := RunMultiBuffer(spy, groups, ring, n, symbols, Ternary, 56_000)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		t.Logf("n=%d: bw=%.0f bps err=%.1f%%", n, res.Bandwidth, 100*res.ErrorRate)
		if res.ErrorRate > 0.25 {
			t.Errorf("n=%d error %.1f%% too high", n, 100*res.ErrorRate)
		}
		if prev > 0 && res.Bandwidth < prev*1.5 {
			t.Errorf("n=%d bandwidth %.0f did not scale from %.0f", n, res.Bandwidth, prev)
		}
		prev = res.Bandwidth
	}
}

func TestChasingChannelRoundTrip(t *testing.T) {
	spy, groups, ring := covertWorld(t, 34, 0)
	symbols := stats.NewLFSR15(11).Symbols(100, 3)
	ch := NewChasingChannel(spy, groups, ring)
	res := ch.Run(symbols, Ternary, 20_000, sim.NewRNG(1))
	t.Logf("chasing: bw=%.0f bps err=%.1f%% synced-err=%.1f%% oos=%d",
		res.Bandwidth, 100*res.ErrorRate, 100*res.SyncedErrorRate, res.OutOfSync)
	// The paper's Fig 12c,d regime: a few percent out-of-sync events and
	// error measured on the synchronized regions.
	if res.SyncedErrorRate > 0.15 {
		t.Errorf("chasing synced error %.1f%% too high", 100*res.SyncedErrorRate)
	}
	if OutOfSyncRate(res) > 0.10 {
		t.Errorf("out-of-sync rate %.1f%% beyond paper range", 100*OutOfSyncRate(res))
	}
	if len(res.Received) < 50 {
		t.Errorf("received only %d of 100 symbols", len(res.Received))
	}
}

func TestChasingChannelReorderingDegradesAtHighRate(t *testing.T) {
	// The Fig 12d shape: error jumps when the send rate enters the
	// reordering regime.
	spy1, groups1, ring1 := covertWorld(t, 35, 0)
	symbols := stats.NewLFSR15(13).Symbols(120, 3)
	low := NewChasingChannel(spy1, groups1, ring1).Run(symbols, Ternary, 100_000, sim.NewRNG(2))

	spy2, groups2, ring2 := covertWorld(t, 35, 0)
	high := NewChasingChannel(spy2, groups2, ring2).Run(symbols, Ternary, 450_000, sim.NewRNG(2))

	t.Logf("low rate: err=%.1f%%; high rate: err=%.1f%%",
		100*low.ErrorRate, 100*high.ErrorRate)
	// Reordering plus chase losses both degrade the raw stream fidelity.
	if high.ErrorRate <= low.ErrorRate {
		t.Errorf("high-rate error %.2f should exceed low-rate %.2f (reordering)",
			high.ErrorRate, low.ErrorRate)
	}
}

func TestReorderProbabilityModel(t *testing.T) {
	cases := []struct {
		rate float64
		zero bool
	}{
		{80_000, true}, {250_000, true}, {400_000, false}, {1_000_000, false},
	}
	for _, c := range cases {
		p := netmodel.ReorderProbabilityAt(c.rate)
		if c.zero && p != 0 {
			t.Errorf("rate %.0f: p=%v want 0", c.rate, p)
		}
		if !c.zero && p <= 0 {
			t.Errorf("rate %.0f: p=%v want >0", c.rate, p)
		}
		if p > 0.3 {
			t.Errorf("p must be capped at 0.3, got %v", p)
		}
	}
}
