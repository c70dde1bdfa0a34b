package chase

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/netmodel"
	"repro/internal/nic"
	"repro/internal/probe"
	"repro/internal/testbed"
)

// smallWorld builds a scaled machine with 32 page-aligned groups and a
// 64-buffer ring over 32 sets (ratio 1, like the paper's 256-over-256): big
// enough to exercise shared-set history and kernel-page pollution, small
// enough for fast tests.
func smallWorld(t *testing.T, seed int64) (*testbed.Testbed, *probe.Spy, []probe.EvictionSet) {
	t.Helper()
	opts := testbed.DefaultOptions(seed)
	opts.Cache = cache.ScaledConfig(2, 1024, 4)
	opts.NIC = nic.DefaultConfig()
	opts.NIC.RingSize = 32
	opts.NoiseRate = 0
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
	if len(groups) != opts.Cache.AlignedSetCount() {
		t.Fatalf("found %d groups want %d", len(groups), opts.Cache.AlignedSetCount())
	}
	return tb, spy, groups
}

// canonicalOf maps attacker-local group ids to the canonical aligned-set
// index so recovered sequences can be compared with driver ground truth.
func canonicalOf(ccfg cache.Config, groups []probe.EvictionSet) map[int]int {
	m := make(map[int]int, len(groups))
	for _, g := range groups {
		m[g.ID] = ccfg.AlignedIndexOf(ccfg.GlobalSet(g.Lines[0]))
	}
	return m
}

func TestFootprintDiscovery(t *testing.T) {
	tb, spy, groups := smallWorld(t, 21)
	wire := netmodel.NewWire(netmodel.GigabitRate)
	res := RecoverFootprint(spy, groups, DefaultFootprintParams(), func() {
		tb.SetTraffic(netmodel.NewConstantSource(wire, 128, 100_000, tb.Clock().Now(), -1))
	})
	if len(res.ActiveGroups) == 0 {
		t.Fatal("no active groups found while receiving")
	}
	// Ground truth: which canonical sets actually host ring buffers.
	truthSets := map[int]bool{}
	for _, s := range tb.NIC().RingAlignedSets(tb.Cache().Config()) {
		truthSets[s] = true
	}
	// Kernel pages involved in packet processing (the descriptor ring)
	// legitimately light up too.
	ccfg := tb.Cache().Config()
	descSet := ccfg.AlignedIndexOf(ccfg.GlobalSet(uint64(tb.NIC().DescRingPage())))
	canon := canonicalOf(ccfg, groups)
	for _, gid := range res.ActiveGroups {
		if !truthSets[canon[gid]] && canon[gid] != descSet {
			t.Errorf("group %d (canonical %d) flagged active but hosts no buffer", gid, canon[gid])
		}
	}
	// All buffer-hosting sets must be discovered (16 buffers across 8
	// sets: every set is expected to host at least one).
	found := map[int]bool{}
	for _, gid := range res.ActiveGroups {
		found[canon[gid]] = true
	}
	for s := range truthSets {
		if !found[s] {
			t.Errorf("buffer-hosting set %d not discovered", s)
		}
	}
}

func TestSequenceRecoveryEndToEnd(t *testing.T) {
	tb, spy, groups := smallWorld(t, 22)
	ccfg := tb.Cache().Config()

	wire := netmodel.NewWire(netmodel.GigabitRate)
	// One packet per ~300k cycles (11 kpps), probes every 100k cycles:
	// about one activation per three samples, and the interval comfortably
	// exceeds the DMA-to-driver-read latency so each packet touches only
	// one sample — the tuning regime §III-C describes.
	tb.SetTraffic(netmodel.NewConstantSource(wire, 64, 11_000, tb.Clock().Now(), -1))

	seq := &Sequencer{
		Spy:    spy,
		Groups: groups,
		Params: SequencerParams{
			Samples:        8000,
			WindowSize:     len(groups),
			ProbeRate:      33_000,
			ActivityCutoff: 0.2,
			WeightCutoff:   3,
		},
	}
	ids := make([]int, len(groups))
	for i := range ids {
		ids[i] = i
	}
	recovered, err := seq.RecoverWindow(ids)
	if err != nil {
		t.Fatal(err)
	}
	canon := canonicalOf(ccfg, groups)
	rec := make([]int, len(recovered))
	for i, gid := range recovered {
		rec[i] = canon[gid]
	}
	truth := CollapseRuns(tb.NIC().RingAlignedSets(ccfg))
	q := EvaluateCyclic(rec, truth)
	t.Logf("recovered len=%d truth len=%d dist=%d err=%.1f%%",
		len(rec), len(truth), q.Levenshtein, 100*q.ErrorRate)
	if q.ErrorRate > 0.25 {
		t.Errorf("sequence recovery error %.1f%% too high (dist %d, rec %v, truth %v)",
			100*q.ErrorRate, q.Levenshtein, rec, truth)
	}
}

func TestChaserFollowsSizes(t *testing.T) {
	tb, spy, groups := smallWorld(t, 23)
	ccfg := tb.Cache().Config()

	// Ground-truth ring (canonical sets -> group ids) isolates the chaser
	// from sequencer quality.
	byCanon := map[int]int{}
	for _, g := range groups {
		byCanon[ccfg.AlignedIndexOf(ccfg.GlobalSet(g.Lines[0]))] = g.ID
	}
	var ring []int
	for _, s := range tb.NIC().RingAlignedSets(ccfg) {
		ring = append(ring, byCanon[s])
	}

	// Alternating 4-block and 1-block packets, slow enough to chase.
	wire := netmodel.NewWire(netmodel.GigabitRate)
	sizes := make([]int, 64)
	for i := range sizes {
		if i%2 == 0 {
			sizes[i] = 256 // 4 blocks
		} else {
			sizes[i] = 64 // 1 block
		}
	}
	gaps := make([]uint64, len(sizes))
	for i := range gaps {
		gaps[i] = 400_000
	}
	tb.SetTraffic(netmodel.NewTraceSource(wire, sizes, gaps, tb.Clock().Now()+200_000))

	cfg := DefaultChaserConfig()
	cfg.SyncTimeout = 2_000_000
	ch := NewChaser(spy, groups, ring, cfg)
	obs := ch.Chase(40)
	if len(obs) < 30 {
		t.Fatalf("chased only %d packets", len(obs))
	}
	big, small := 0, 0
	for i, o := range obs {
		if o.Resynced {
			continue
		}
		if o.Blocks >= 4 {
			big++
		} else if o.Blocks <= 2 {
			small++
		}
		_ = i
	}
	if big == 0 || small == 0 {
		t.Fatalf("size classes not distinguished: big=%d small=%d", big, small)
	}
	// Alternating stream: roughly half each among classified packets.
	total := big + small
	if big < total/4 || small < total/4 {
		t.Errorf("alternation lost: big=%d small=%d", big, small)
	}
	if ch.OutOfSync > uint64(len(obs)/2) {
		t.Errorf("out-of-sync rate too high: %d/%d", ch.OutOfSync, len(obs))
	}
}

func TestRecoverFullInsertsCandidates(t *testing.T) {
	tb, spy, groups := smallWorld(t, 24)
	ccfg := tb.Cache().Config()
	wire := netmodel.NewWire(netmodel.GigabitRate)
	tb.SetTraffic(netmodel.NewConstantSource(wire, 64, 11_000, tb.Clock().Now(), -1))

	seq := &Sequencer{
		Spy:    spy,
		Groups: groups,
		Params: SequencerParams{
			Samples:        6000,
			WindowSize:     16, // force candidate insertion for the rest
			ProbeRate:      33_000,
			ActivityCutoff: 0.2,
			WeightCutoff:   3,
		},
	}
	recovered, err := seq.RecoverFull()
	if err != nil {
		t.Fatal(err)
	}
	canon := canonicalOf(ccfg, groups)
	rec := make([]int, len(recovered))
	for i, gid := range recovered {
		rec[i] = canon[gid]
	}
	truth := CollapseRuns(tb.NIC().RingAlignedSets(ccfg))
	q := EvaluateCyclic(rec, truth)
	t.Logf("full recovery: len=%d truth=%d dist=%d err=%.1f%%",
		len(rec), len(truth), q.Levenshtein, 100*q.ErrorRate)
	// Candidate insertion is noisier than single-window recovery, and at
	// this scale each window holds only ~16 ring entries while descriptor
	// pollution is 8x the paper's, so the error floor is well above the
	// paper's 9.8%. The paper-scale run (cmd/experiments -exp table1)
	// lands near the paper's figure; here we assert the procedure stays
	// broadly correct.
	if q.ErrorRate > 0.6 {
		t.Errorf("full recovery error %.1f%% too high", 100*q.ErrorRate)
	}
}

// TestChaserPollAllocs: once a chase is under way, chasing a packet —
// the switch probe, every poll of the wait, and the linger probe —
// allocates nothing. The polls reuse the monitor's and the chaser's
// activity buffers.
func TestChaserPollAllocs(t *testing.T) {
	tb, spy, groups := smallWorld(t, 25)
	ccfg := tb.Cache().Config()
	byCanon := map[int]int{}
	for _, g := range groups {
		byCanon[ccfg.AlignedIndexOf(ccfg.GlobalSet(g.Lines[0]))] = g.ID
	}
	var ring []int
	for _, s := range tb.NIC().RingAlignedSets(ccfg) {
		ring = append(ring, byCanon[s])
	}
	sizes := make([]int, 200)
	gaps := make([]uint64, len(sizes))
	for i := range sizes {
		sizes[i] = 64 + 64*(i%4)
		gaps[i] = 400_000
	}
	tb.SetTraffic(netmodel.NewTraceSource(netmodel.NewWire(netmodel.GigabitRate), sizes, gaps, tb.Clock().Now()+200_000))
	cfg := DefaultChaserConfig()
	cfg.SyncTimeout = 2_000_000
	ch := NewChaser(spy, groups, ring, cfg)
	if obs := ch.Chase(len(ring)); len(obs) != len(ring) {
		t.Fatalf("chased %d of %d packets before measuring", len(obs), len(ring))
	}
	observed := ch.Observed
	if allocs := testing.AllocsPerRun(40, func() { ch.Next() }); allocs != 0 {
		t.Errorf("a steady-state chase of one packet allocates %v times, want 0", allocs)
	}
	if ch.Observed-observed != 41 {
		t.Errorf("chased %d packets while measuring, want 41", ch.Observed-observed)
	}
}
