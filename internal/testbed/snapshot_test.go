package testbed

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/netmodel"
	"repro/internal/nic"
	"repro/internal/sim"
)

// smallOptions is a quick-to-build machine with every stateful subsystem
// live: partitioned cache off (DDIO on), noise and timer processes
// enabled, a modest driver ring.
func smallOptions(seed int64) Options {
	opts := DefaultOptions(seed)
	opts.Cache = cache.ScaledConfig(2, 64, 4)
	opts.NIC.RingSize = 16
	opts.NIC.SKBPages = 8
	opts.MemBytes = 1 << 22 // 4 MiB: 1024 pages
	opts.NoiseRate = 200_000
	opts.TimerNoise = 6
	return opts
}

// worldOps drives the machine through a deterministic mixed workload —
// frame DMA + driver processing, idle time with background noise, direct
// cache traffic, timer reads — and returns an observation trace that a
// replay must reproduce bit for bit.
func worldOps(tb *Testbed, data []byte) []uint64 {
	var obs []uint64
	for i := 0; i+2 <= len(data); i += 2 {
		kind, arg := data[i]%5, uint64(data[i+1])
		switch kind {
		case 0: // frame arrival through the NIC (known and unknown protos)
			f := netmodel.Frame{
				Size:    64 + int(arg%1400),
				Arrival: tb.Clock().Now(),
				Known:   arg%3 != 0,
			}
			tb.NIC().Receive(f)
			obs = append(obs, tb.NIC().Stats().Received)
		case 1: // idle: noise process and driver queue drain
			tb.Idle(1_000 + arg*500)
			obs = append(obs, tb.Clock().Now(), tb.Cache().Stats().CPUAccesses)
		case 2: // spy-style read with timer noise
			_, lat := tb.Cache().Read(arg * 64)
			tb.Clock().Advance(lat)
			obs = append(obs, tb.TimerRead(lat))
		case 3: // driver catch-up
			tb.NIC().ProcessDriver(tb.Clock().Now())
			obs = append(obs, uint64(tb.NIC().PendingDriverWork()))
		case 4: // cache write + occupancy oracle
			_, lat := tb.Cache().Write(arg * 64)
			tb.Clock().Advance(lat)
			obs = append(obs, lat, tb.Cache().Stats().MemWrites)
		}
	}
	return obs
}

// checkWorldReplay is the satellite acceptance property: for a random op
// prefix, Snapshot -> ops -> Restore -> ops replays byte-identically
// across cache, NIC, and testbed.
func checkWorldReplay(t *testing.T, seed int64, data []byte) {
	t.Helper()
	if len(data) < 4 {
		return
	}
	tb, err := New(smallOptions(seed))
	if err != nil {
		t.Fatal(err)
	}
	cut := (int(data[0]) % (len(data) / 2)) &^ 1
	worldOps(tb, data[1:1+cut])

	snap, err := tb.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	suffix := data[1+cut:]
	first := worldOps(tb, suffix)
	tb.Restore(snap)
	second := worldOps(tb, suffix)

	if len(first) != len(second) {
		t.Fatalf("replay lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("observation %d: %d on first run, %d on replay", i, first[i], second[i])
		}
	}
	// The world cursors must coincide too, not just observations.
	a, err := tb.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	tb.Restore(snap)
	worldOps(tb, suffix)
	b, err := tb.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if a.clock != b.clock || a.noiseNextAt != b.noiseNextAt ||
		a.noiseRNG != b.noiseRNG || a.timerRNG != b.timerRNG {
		t.Fatal("world cursors differ after replay")
	}
}

func TestWorldSnapshotReplayDeterministic(t *testing.T) {
	rng := sim.NewRNG(99)
	for trial := 0; trial < 20; trial++ {
		data := make([]byte, 64+rng.Intn(128))
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		checkWorldReplay(t, int64(trial), data)
	}
}

// TestRestoreIntoFreshTestbed is the warm-start clone path: restore a
// snapshot into a separately constructed machine with identical options
// and check both worlds evolve identically from there.
func TestRestoreIntoFreshTestbed(t *testing.T) {
	opts := smallOptions(7)
	a, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	script := make([]byte, 120)
	rng := sim.NewRNG(3)
	for i := range script {
		script[i] = byte(rng.Intn(256))
	}
	worldOps(a, script[:60])
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	b, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	b.Restore(snap)
	// A shell adopting the snapshot is the cheap clone path. It must be
	// indistinguishable from New + Restore.
	c := shellClone(t, opts, snap)
	// So is a machine of the same shape that ran under another
	// configuration, as a pooled rig adopting a sibling artifact does.
	sibling := smallOptions(8)
	sibling.Cache.HitLatency, sibling.Cache.DDIOWays = 30, 1
	sibling.NIC.Randomize, sibling.NIC.DriverLatency = nic.RandomizeFull, 1_234
	d, err := New(sibling)
	if err != nil {
		t.Fatal(err)
	}
	worldOps(d, script[:60])
	d.AdoptSnapshot(opts, snap)
	want := worldOps(a, script[60:])
	for name, clone := range map[string]*Testbed{"New+Restore": b, "NewShell+AdoptSnapshot": c, "sibling+AdoptSnapshot": d} {
		got := worldOps(clone, script[60:])
		if len(got) != len(want) {
			t.Fatalf("%s: trace lengths differ: %d vs %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: clone diverged at observation %d: %d vs %d", name, i, got[i], want[i])
			}
		}
	}
}

// TestAdoptAcrossShapesPanics: a machine adopts only options of its own
// Shape; any other is two machines crossed, and panics. Snapshot.Fits,
// which a decoded snapshot is checked with first, rejects every such
// pairing.
func TestAdoptAcrossShapesPanics(t *testing.T) {
	opts := smallOptions(7)
	a, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Fits(opts); err != nil {
		t.Fatalf("a snapshot must fit its own machine's options: %v", err)
	}
	ddio := opts
	ddio.Cache.DDIOWays++
	if snap.Fits(ddio) == nil {
		t.Error("a snapshot fits options whose cache geometry key differs")
	}
	for name, edit := range map[string]func(*Options){
		"memory":    func(o *Options) { o.MemBytes *= 2 },
		"ways":      func(o *Options) { o.Cache.Ways *= 2 },
		"partition": func(o *Options) { o.Cache.Partition = cache.DefaultPartitionConfig() },
		"ring":      func(o *Options) { o.NIC.RingSize *= 2 },
		"skb":       func(o *Options) { o.NIC.SKBPages *= 2 },
	} {
		t.Run(name, func(t *testing.T) {
			other := smallOptions(7)
			edit(&other)
			if other.Shape() == opts.Shape() {
				t.Fatalf("%s: shape %+v unchanged", name, other.Shape())
			}
			if snap.Fits(other) == nil {
				t.Errorf("%s: the snapshot fits options of another shape", name)
			}
			tb, err := NewShell(other)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if recover() == nil {
					t.Fatal("adopting options of another shape must panic")
				}
			}()
			tb.AdoptSnapshot(opts, snap)
		})
	}
}

// shellClone is the warm-start clone path: an empty shell adopting the
// snapshot.
func shellClone(t *testing.T, opts Options, snap *Snapshot) *Testbed {
	t.Helper()
	tb, err := NewShell(opts)
	if err != nil {
		t.Fatal(err)
	}
	tb.AdoptSnapshot(opts, snap)
	return tb
}

// TestSnapshotRefusesTraffic pins the no-traffic contract.
func TestSnapshotRefusesTraffic(t *testing.T) {
	tb, err := New(smallOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	wire := netmodel.NewWire(netmodel.GigabitRate)
	tb.SetTraffic(netmodel.NewConstantSource(wire, 64, 1000, 0, 10))
	if _, err := tb.Snapshot(); err == nil {
		t.Fatal("snapshot with traffic installed must fail")
	}
	tb.SetTraffic(nil)
	if _, err := tb.Snapshot(); err != nil {
		t.Fatalf("snapshot without traffic: %v", err)
	}
}

// TestRestoreDropsOnlineOverrides: Restore must return the machine to the
// snapshot's environment even after SetNoiseRate / SetTimerNoise /
// ReseedOnline changed it.
func TestRestoreDropsOnlineOverrides(t *testing.T) {
	tb, err := New(smallOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	tb.Idle(100_000)
	snap, err := tb.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	wantTimer := tb.Options().TimerNoise
	before := worldOps(tb, []byte{2, 9, 2, 17, 1, 4, 2, 9})

	tb.Restore(snap)
	tb.SetNoiseRate(5_000_000)
	tb.SetTimerNoise(200)
	tb.ReseedOnline(12345)
	tb.Restore(snap)
	if tb.Options().TimerNoise != wantTimer {
		t.Fatalf("timer noise %d after restore, want %d", tb.Options().TimerNoise, wantTimer)
	}
	after := worldOps(tb, []byte{2, 9, 2, 17, 1, 4, 2, 9})
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("observation %d differs after override+restore: %d vs %d", i, before[i], after[i])
		}
	}
}

// FuzzWorldSnapshotReplay hands the op script to the fuzzer.
func FuzzWorldSnapshotReplay(f *testing.F) {
	f.Add(int64(1), []byte{8, 0, 10, 1, 3, 2, 40, 3, 0, 0, 200, 1, 1, 4, 7})
	f.Add(int64(5), []byte{20, 2, 2, 0, 255, 1, 9, 0, 64, 3, 1, 2, 2, 4, 4, 0, 0, 1, 8})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		if len(data) > 2048 {
			return
		}
		checkWorldReplay(t, seed%64, data)
	})
}
