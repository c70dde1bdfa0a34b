package testbed

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/netmodel"
)

func small(t *testing.T, seed int64) *Testbed {
	t.Helper()
	opts := DefaultOptions(seed)
	opts.Cache = cache.ScaledConfig(2, 128, 4)
	opts.MemBytes = 1 << 26
	tb, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestSyncDeliversDueFrames(t *testing.T) {
	tb := small(t, 1)
	wire := netmodel.NewWire(netmodel.GigabitRate)
	tb.SetTraffic(netmodel.NewConstantSource(wire, 64, 100_000, 0, 3))
	tb.IdleTo(100_000_000)
	if got := tb.NIC().Stats().Received; got != 3 {
		t.Errorf("received %d frames want 3", got)
	}
}

func TestSyncDoesNotDeliverFutureFrames(t *testing.T) {
	tb := small(t, 2)
	wire := netmodel.NewWire(netmodel.GigabitRate)
	tb.SetTraffic(netmodel.NewConstantSource(wire, 64, 100, tb.Clock().Now()+1_000_000, 5))
	tb.Sync()
	if got := tb.NIC().Stats().Received; got != 0 {
		t.Errorf("future frames delivered early: %d", got)
	}
}

func TestDrainTraffic(t *testing.T) {
	tb := small(t, 3)
	wire := netmodel.NewWire(netmodel.GigabitRate)
	tb.SetTraffic(netmodel.NewConstantSource(wire, 128, 50_000, tb.Clock().Now(), 10))
	if n := tb.DrainTraffic(); n != 10 {
		t.Errorf("drained %d frames want 10", n)
	}
	if tb.NIC().PendingDriverWork() != 0 {
		t.Error("driver work must be flushed after drain")
	}
}

func TestNoiseProcessTouchesCache(t *testing.T) {
	opts := DefaultOptions(4)
	opts.Cache = cache.ScaledConfig(2, 128, 4)
	opts.NoiseRate = 1_000_000
	opts.MemBytes = 1 << 26
	tb, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	before := tb.Cache().Stats().CPUAccesses
	tb.Idle(10_000_000)
	if tb.Cache().Stats().CPUAccesses == before {
		t.Error("noise process produced no cache accesses")
	}
}

func TestTimerReadOneSided(t *testing.T) {
	opts := DefaultOptions(5)
	opts.Cache = cache.ScaledConfig(2, 128, 4)
	opts.TimerNoise = 8
	opts.MemBytes = 1 << 26
	tb, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if got := tb.TimerRead(100); got < 100 || got > 100+16 {
			t.Fatalf("timer read %d outside [100,116]", got)
		}
	}
	opts.TimerNoise = 0
	tb2, _ := New(opts)
	if tb2.TimerRead(100) != 100 {
		t.Error("zero noise must be exact")
	}
}

// TestTimerJitterFollowsTimerNoise: TimerRead keeps its jitter
// distribution cached, so a change of TimerNoise must rebuild it. After
// SetTimerNoise, and after a Restore of a snapshot taken under another
// timer, jitter stays in [0, 2N] for the new N and, drawn 400 times,
// exceeds the old range where the new one is wider.
func TestTimerJitterFollowsTimerNoise(t *testing.T) {
	tb := small(t, 8)
	maxJitter := func(n uint64) uint64 {
		t.Helper()
		var hi uint64
		for i := 0; i < 400; i++ {
			j := tb.TimerRead(100) - 100
			if j > 2*n {
				t.Fatalf("jitter %d outside [0, %d] at TimerNoise %d", j, 2*n, n)
			}
			hi = max(hi, j)
		}
		return hi
	}
	tb.SetTimerNoise(64)
	maxJitter(64)
	snap, err := tb.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	tb.SetTimerNoise(1)
	maxJitter(1)
	tb.Restore(snap)
	if hi := maxJitter(64); hi <= 2 {
		t.Fatalf("jitter never exceeded 2 after restoring a TimerNoise-64 snapshot: the TimerNoise-1 range went stale")
	}
	tb.SetTimerNoise(0)
	if got := tb.TimerRead(100); got != 100 {
		t.Fatalf("zero noise read %d, want 100", got)
	}
	tb.SetTimerNoise(3)
	maxJitter(3)
}

func TestReplacingTrafficDropsPending(t *testing.T) {
	tb := small(t, 6)
	wire := netmodel.NewWire(netmodel.GigabitRate)
	tb.SetTraffic(netmodel.NewConstantSource(wire, 64, 1, tb.Clock().Now()+1<<40, 5))
	tb.Sync() // peeks and holds the far-future frame
	tb.SetTraffic(netmodel.NewConstantSource(wire, 64, 100_000, tb.Clock().Now(), 2))
	tb.DrainTraffic()
	if got := tb.NIC().Stats().Received; got != 2 {
		t.Errorf("received %d want 2 (old pending frame must be dropped)", got)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() uint64 {
		tb := small(t, 7)
		wire := netmodel.NewWire(netmodel.GigabitRate)
		tb.SetTraffic(netmodel.NewConstantSource(wire, 200, 150_000, tb.Clock().Now(), 50))
		tb.DrainTraffic()
		return tb.Cache().Stats().CPUAccesses + tb.Cache().Stats().IOWrites + tb.Clock().Now()
	}
	if run() != run() {
		t.Error("same seed must reproduce the same world exactly")
	}
}

// TestRingPagesMatchNew: RingPages, reusing one allocator across seeds
// and after that allocator has allocated and freed, returns exactly the
// ring pages of the machine New assembles, at the default 1 GiB and at a
// smaller memory.
func TestRingPagesMatchNew(t *testing.T) {
	for _, memBytes := range []uint64{0, 1 << 26} {
		opts := DefaultOptions(0)
		opts.Cache = cache.ScaledConfig(2, 128, 4)
		opts.MemBytes = memBytes
		al := mem.NewAllocatorShell(opts.Shape().MemBytes)
		for seed := int64(1); seed <= 4; seed++ {
			opts.Seed = seed
			tb, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RingPages(opts, al)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range got {
				if want := tb.NIC().BufferPage(i); p != want {
					t.Fatalf("mem %d seed %d: ring page %d is %#x, New allocated %#x", memBytes, seed, i, p, want)
				}
			}
			if len(got) != opts.NIC.RingSize {
				t.Fatalf("mem %d seed %d: %d ring pages, want %d", memBytes, seed, len(got), opts.NIC.RingSize)
			}
			al.FreePage(got[0])
		}
	}
}

// TestFrameDeliveryAllocs: delivering a frame allocates nothing — the
// peeked frame is held by value, not boxed per frame, and the driver
// queue is compacted in place, so its backing array never regrows.
func TestFrameDeliveryAllocs(t *testing.T) {
	tb := small(t, 8)
	wire := netmodel.NewWire(netmodel.GigabitRate)
	tb.SetTraffic(netmodel.NewConstantSource(wire, 128, 100_000, tb.Clock().Now(), -1))
	tb.Idle(10_000_000)
	before := tb.NIC().Stats().Received
	const runs = 20
	allocs := testing.AllocsPerRun(runs, func() { tb.Idle(10_000_000) })
	frames := float64(tb.NIC().Stats().Received-before) / (runs + 1) // AllocsPerRun adds a warm-up run
	if frames < 100 {
		t.Fatalf("only %v frames delivered per run", frames)
	}
	if allocs != 0 {
		t.Errorf("frame delivery allocated %.2f times per frame, want 0", allocs/frames)
	}
}
