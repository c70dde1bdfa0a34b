// Package testbed assembles the simulated machine the attack runs on: the
// cycle clock, physical memory, LLC, NIC+driver, a traffic source, and a
// background-noise process standing in for the other tenants of a busy
// server. The spy drives simulated time; the testbed keeps the rest of the
// world (frame deliveries, driver work, noise) caught up whenever the spy
// looks at the clock.
package testbed

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/netmodel"
	"repro/internal/nic"
	"repro/internal/sim"
)

// Options configures a testbed.
type Options struct {
	// Cache is the LLC geometry/feature config (default: the paper
	// machine with DDIO on).
	Cache cache.Config
	// NIC is the adapter/driver config (default: stock IGB).
	NIC nic.Config
	// MemBytes is the physical memory size (default 1 GiB).
	MemBytes uint64
	// Seed drives every random decision in the world.
	Seed int64
	// NoiseRate is the rate (accesses/second) of a background process
	// touching uniformly random cache lines — ambient server activity
	// that the attack's thresholds and windows must tolerate.
	NoiseRate float64
	// TimerNoise is the magnitude of one-sided jitter added to the spy's
	// latency measurements, modeling timer granularity: TimerRead adds a
	// uniform value in [0, 2*TimerNoise] cycles (mean TimerNoise), never
	// subtracting — a coarse timer can only over-report elapsed work.
	// Zero means a perfect timer.
	TimerNoise uint64
}

// DefaultOptions returns the paper machine: 20 MB DDIO LLC, stock IGB
// driver, 1 GiB memory, light background noise.
func DefaultOptions(seed int64) Options {
	return Options{
		Cache:      cache.PaperConfig(),
		NIC:        nic.DefaultConfig(),
		MemBytes:   1 << 30,
		Seed:       seed,
		NoiseRate:  50_000,
		TimerNoise: 8,
	}
}

// Testbed is the assembled machine.
type Testbed struct {
	opts  Options
	clock *sim.Clock
	cache *cache.Cache
	alloc *mem.Allocator
	nic   *nic.NIC

	traffic netmodel.Source
	// nextFrame is the frame peeked from traffic but not yet delivered,
	// held by value so peeking allocates nothing; havePeek marks it valid.
	//packetlint:transient meaningful only while havePeek, which Snapshot refuses and restore clears
	nextFrame netmodel.Frame
	havePeek  bool

	noiseRNG    *sim.RNG
	noisePeriod uint64
	noiseNextAt uint64
	noiseSpace  uint64

	timerRNG *sim.RNG
	//packetlint:transient derived from opts.TimerNoise: TimerReads rebuilds it whenever TimerNoise changes (Restore, AdoptSnapshot, SetTimerNoise)
	timerJitter sim.Uniform // the draw of Intn(2*TimerNoise+1)
}

// New builds a testbed. The NIC's ring pages are allocated here, so two
// testbeds with the same seed have identical ring layouts.
func New(opts Options) (*Testbed, error) {
	if opts.MemBytes == 0 {
		opts.MemBytes = 1 << 30
	}
	clock := sim.NewClock()
	c := cache.New(opts.Cache, clock)
	alloc := mem.NewAllocator(opts.MemBytes, pageAllocRNG(opts.Seed))
	n, err := nic.New(opts.NIC, c, alloc, clock, sim.Derive(opts.Seed, "driver"))
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	tb := &Testbed{
		opts:       opts,
		clock:      clock,
		cache:      c,
		alloc:      alloc,
		nic:        n,
		noiseRNG:   sim.Derive(opts.Seed, "noise"),
		timerRNG:   sim.Derive(opts.Seed, "timer"),
		noiseSpace: opts.MemBytes,
	}
	if opts.NoiseRate > 0 {
		tb.noisePeriod = sim.CyclesPerSecond(opts.NoiseRate)
		tb.noiseNextAt = tb.noisePeriod
	}
	return tb, nil
}

// pageAllocRNG is the stream that shuffles a machine's frame order.
func pageAllocRNG(seed int64) *sim.RNG { return sim.Derive(seed, "page-alloc") }

// RingPages returns the ring buffer pages New(opts) allocates, without
// assembling the machine: it resets al, an allocator over opts.MemBytes
// (1 GiB when zero), to New's frame shuffle and allocates the ring from
// it as New does, first. Fig 6 reads a thousand machines' rings this way.
func RingPages(opts Options, al *mem.Allocator) ([]mem.Addr, error) {
	al.Reset(pageAllocRNG(opts.Seed))
	return nic.AllocRing(opts.NIC, al)
}

// Clock returns the simulated cycle clock.
func (tb *Testbed) Clock() *sim.Clock { return tb.clock }

// Cache returns the LLC.
func (tb *Testbed) Cache() *cache.Cache { return tb.cache }

// Alloc returns the physical page allocator.
func (tb *Testbed) Alloc() *mem.Allocator { return tb.alloc }

// NIC returns the adapter/driver model.
func (tb *Testbed) NIC() *nic.NIC { return tb.nic }

// Options returns the construction options.
func (tb *Testbed) Options() Options { return tb.opts }

// SetTraffic installs the frame source whose frames are delivered as
// simulated time passes. Replacing the source drops any undelivered frame
// from the previous one.
func (tb *Testbed) SetTraffic(src netmodel.Source) {
	tb.traffic = src
	tb.havePeek = false
}

// Sync delivers every world event due at or before the current cycle:
// frame DMA, driver processing, and background noise. The spy calls this
// (via probe helpers) whenever it is about to measure.
func (tb *Testbed) Sync() {
	now := tb.clock.Now()
	for {
		// Interleave frames and noise in timestamp order so cache state
		// evolves in a deterministic global order. The next frame's arrival
		// is stable while noise drains, so all noise accesses due before it
		// are delivered in one inner loop instead of re-peeking the frame
		// per event; a frame wins an exact timestamp tie, as before.
		frameAt, haveFrame := tb.peekFrame()
		for tb.noisePeriod != 0 && tb.noiseNextAt <= now && (!haveFrame || tb.noiseNextAt < frameAt) {
			tb.noiseAccess()
		}
		if !haveFrame || frameAt > now {
			tb.nic.ProcessDriver(now)
			return
		}
		tb.nic.Receive(tb.nextFrame)
		tb.havePeek = false
	}
}

// TimerRead returns a latency observation with timer noise applied — the
// spy's view of a measured duration.
func (tb *Testbed) TimerRead(lat uint64) uint64 { return tb.TimerReads(lat, 1) }

// TimerReads returns the sum of n timer readings whose true durations sum
// to lat: lat plus n jitter draws. Only timer readings draw from the
// timer's stream, so a walk that reads the timer once per load may take
// its n draws after its loads and see the same jitter.
func (tb *Testbed) TimerReads(lat uint64, n int) uint64 {
	if tb.opts.TimerNoise == 0 {
		return lat
	}
	if m := int(2*tb.opts.TimerNoise + 1); tb.timerJitter.N() != m {
		tb.timerJitter = sim.NewUniform(m)
	}
	// One-sided jitter: a timer never under-reports work.
	return lat + uint64(tb.timerRNG.DrawSum(&tb.timerJitter, n))
}

// TimerDraws returns how many values the timer's jitter stream has drawn:
// a deterministic count of the spy's timer readings.
func (tb *Testbed) TimerDraws() uint64 { return tb.timerRNG.Snapshot().Draws }

// Idle advances the clock by d cycles with the spy doing nothing, keeping
// the world caught up.
func (tb *Testbed) Idle(d uint64) {
	tb.clock.Advance(d)
	tb.Sync()
}

// IdleTo advances the clock to cycle t (no-op if already past).
func (tb *Testbed) IdleTo(t uint64) {
	if t > tb.clock.Now() {
		tb.clock.AdvanceTo(t)
	}
	tb.Sync()
}

// DrainTraffic delivers every remaining frame of the current source,
// advancing the clock as needed. It returns the number delivered.
func (tb *Testbed) DrainTraffic() int {
	n := 0
	for {
		at, ok := tb.peekFrame()
		if !ok {
			break
		}
		tb.IdleTo(at)
		n++
	}
	tb.nic.ProcessDriver(tb.clock.Now() + tb.opts.NIC.DriverLatency)
	return n
}

func (tb *Testbed) peekFrame() (uint64, bool) {
	if !tb.havePeek && tb.traffic != nil {
		tb.nextFrame, tb.havePeek = tb.traffic.Next()
	}
	if !tb.havePeek {
		return 0, false
	}
	return tb.nextFrame.Arrival, true
}

func (tb *Testbed) noiseAccess() {
	addr := uint64(tb.noiseRNG.Int63()) % tb.noiseSpace
	tb.cache.Read(addr &^ 63)
	// Poisson-ish arrivals: exponential-ish spacing via uniform jitter.
	tb.noiseNextAt += uint64(tb.noiseRNG.Jitter(float64(tb.noisePeriod), 0.9))
}
