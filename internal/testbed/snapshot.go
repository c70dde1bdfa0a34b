package testbed

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/nic"
	"repro/internal/sim"
)

// Snapshot is a deep, immutable copy of the whole machine's mutable state:
// clock cycle, cache contents, physical-memory bookkeeping, NIC/driver
// state, the noise and timer RNG states, and the noise process cursor.
// One snapshot can be restored any number of times, into the testbed it
// was taken from or into a freshly constructed testbed with identical
// Options — the warm-start path clones machines that way, one
// independent clone per concurrent trial.
//
// A snapshot deliberately excludes the traffic source: Source
// implementations are arbitrary iterators with no generic state capture.
// Snapshots are therefore taken between traffic phases (the phase-split
// experiment API snapshots after the offline phase, before any online
// stream is installed) and Restore leaves the machine with no traffic.
type Snapshot struct {
	clock uint64
	cache *cache.Snapshot
	alloc *mem.AllocatorState
	nic   *nic.Snapshot

	noiseRNG sim.RNGState
	timerRNG sim.RNGState

	noiseRate   float64
	timerNoise  uint64
	noisePeriod uint64
	noiseNextAt uint64
	noiseSpace  uint64
}

// Snapshot captures the machine state. It fails when a traffic source is
// installed or a frame is already peeked from one: traffic cursors cannot
// be captured generically, so snapshotting mid-stream would silently drop
// frames on restore.
func (tb *Testbed) Snapshot() (*Snapshot, error) {
	if tb.traffic != nil || tb.havePeek {
		return nil, fmt.Errorf("testbed: cannot snapshot with a traffic source installed")
	}
	return &Snapshot{
		clock:       tb.clock.Snapshot(),
		cache:       tb.cache.Snapshot(),
		alloc:       tb.alloc.Snapshot(),
		nic:         tb.nic.Snapshot(),
		noiseRNG:    tb.noiseRNG.Snapshot(),
		timerRNG:    tb.timerRNG.Snapshot(),
		noiseRate:   tb.opts.NoiseRate,
		timerNoise:  tb.opts.TimerNoise,
		noisePeriod: tb.noisePeriod,
		noiseNextAt: tb.noiseNextAt,
		noiseSpace:  tb.noiseSpace,
	}, nil
}

// NewShell assembles a machine with no free-list shuffle, no ring/skb page
// allocation, and no RNG warm-up — a restore target. A shell that is never
// restored has an empty allocator and a zeroed ring and must not be used;
// every clone path pairs it with Restore or AdoptSnapshot, which overwrite
// all of that wholesale.
func NewShell(opts Options) (*Testbed, error) {
	if opts.MemBytes == 0 {
		opts.MemBytes = 1 << 30
	}
	clock := sim.NewClock()
	c := cache.New(opts.Cache, clock)
	alloc := mem.NewAllocatorShell(opts.MemBytes)
	n, err := nic.NewShell(opts.NIC, c, alloc, clock, sim.NewRNG(0))
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	return &Testbed{
		opts:       opts,
		clock:      clock,
		cache:      c,
		alloc:      alloc,
		nic:        n,
		noiseRNG:   sim.NewRNG(0),
		timerRNG:   sim.NewRNG(0),
		noiseSpace: opts.MemBytes,
	}, nil
}

// Restore overwrites the machine's mutable state from a snapshot taken on
// a machine with identical geometry (same Options except, possibly, the
// online knobs NoiseRate and TimerNoise, which the snapshot carries). Any
// installed traffic source is dropped, matching the no-traffic state the
// snapshot was taken in.
func (tb *Testbed) Restore(s *Snapshot) {
	tb.clock.Restore(s.clock)
	tb.cache.Restore(s.cache)
	tb.alloc.Restore(s.alloc)
	tb.nic.Restore(s.nic)
	tb.noiseRNG.Restore(&s.noiseRNG)
	tb.timerRNG.Restore(&s.timerRNG)
	tb.opts.NoiseRate = s.noiseRate
	tb.opts.TimerNoise = s.timerNoise
	tb.noisePeriod = s.noisePeriod
	tb.noiseNextAt = s.noiseNextAt
	tb.noiseSpace = s.noiseSpace
	tb.traffic = nil
	tb.havePeek = false
}

// AdoptSnapshot rebinds a pooled machine to a (possibly different) rig's
// options and restores it into the snapshot's state, in place. The caller
// guarantees opts has the machine's Shape, so every buffer is reused;
// every other option (latencies, DDIO, partition thresholds, NIC
// randomization, seed, online knobs) may differ and is adopted wholesale,
// and opts of another shape panic. This is the rig-pool lease path, and
// the fresh-clone path too, adopting into a NewShell: it is state-identical
// to restoring into a conventionally built testbed with the same options,
// without constructing anything.
func (tb *Testbed) AdoptSnapshot(opts Options, s *Snapshot) {
	tb.adopt(opts)
	tb.Restore(s)
}

// adopt rebinds the cache and driver to opts, which must keep the
// machine's Shape; the restore that follows checks the memory size.
func (tb *Testbed) adopt(opts Options) {
	if opts.MemBytes == 0 {
		opts.MemBytes = 1 << 30
	}
	tb.cache.Rebind(opts.Cache)
	tb.nic.Rebind(opts.NIC)
	tb.opts = opts
	tb.noiseSpace = opts.MemBytes
}

// Shape is what sizes a machine's buffers: the cache's slices, sets and
// ways, whether it is partitioned (which decides whether it holds per-set
// partition counters), the NIC ring and skb pool sizes, and the memory
// size. Two machines of one shape differ only in what AdoptSnapshot
// overwrites, so the rig pool keys idle machines by it.
type Shape struct {
	Slices, SetsPerSlice, Ways int
	Partitioned                bool
	RingSize, SKBPages         int
	MemBytes                   uint64
}

// Shape returns the shape of the machine New or NewShell builds from o,
// after their defaults (1 GiB of memory, at least one skb page).
func (o Options) Shape() Shape {
	memBytes := o.MemBytes
	if memBytes == 0 {
		memBytes = 1 << 30
	}
	return Shape{
		Slices:       o.Cache.Slices,
		SetsPerSlice: o.Cache.SetsPerSlice,
		Ways:         o.Cache.Ways,
		Partitioned:  o.Cache.Partition != nil,
		RingSize:     o.NIC.RingSize,
		SKBPages:     max(o.NIC.SKBPages, 1),
		MemBytes:     memBytes,
	}
}

// Fits reports why s cannot be adopted by a machine built from opts, or
// nil if it can: the cache, memory and driver state must each fit opts
// (see cache.Snapshot.Fits), and the noise process must draw from opts'
// memory. A snapshot a machine took always fits that machine's options;
// one decoded from disk is checked before a trial adopts it.
func (s *Snapshot) Fits(opts Options) error {
	memBytes := opts.Shape().MemBytes
	if err := s.cache.Fits(opts.Cache); err != nil {
		return fmt.Errorf("testbed: %w", err)
	}
	if err := s.alloc.Fits(memBytes); err != nil {
		return fmt.Errorf("testbed: %w", err)
	}
	if err := s.nic.Fits(opts.NIC); err != nil {
		return fmt.Errorf("testbed: %w", err)
	}
	if s.noiseSpace != memBytes {
		return fmt.Errorf("testbed: snapshot draws noise from %d bytes, want %d", s.noiseSpace, memBytes)
	}
	return nil
}

// snapshotGob mirrors Snapshot with exported fields for the disk-backed
// artifact store. The component snapshots carry their own gob codecs, so
// this composes the same way the in-memory snapshot does.
type snapshotGob struct {
	Clock uint64
	Cache *cache.Snapshot
	Alloc *mem.AllocatorState
	NIC   *nic.Snapshot

	// Pointers, so a missing state decodes as nil.
	NoiseRNG, TimerRNG *sim.RNGState

	NoiseRate   float64
	TimerNoise  uint64
	NoisePeriod uint64
	NoiseNextAt uint64
	NoiseSpace  uint64
}

// GobEncode serializes the machine snapshot (disk-backed warm starts): a
// decoded snapshot clones machines bit-identically to the original, so
// persisted offline artifacts survive process restarts.
func (s *Snapshot) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(snapshotGob{
		Clock: s.clock, Cache: s.cache, Alloc: s.alloc, NIC: s.nic,
		NoiseRNG: &s.noiseRNG, TimerRNG: &s.timerRNG,
		NoiseRate: s.noiseRate, TimerNoise: s.timerNoise,
		NoisePeriod: s.noisePeriod, NoiseNextAt: s.noiseNextAt, NoiseSpace: s.noiseSpace,
	})
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode rebuilds a machine snapshot from its serialized form. A
// missing component or RNG state is an error: the snapshot could not be
// restored.
func (s *Snapshot) GobDecode(b []byte) error {
	var w snapshotGob
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return err
	}
	if w.Cache == nil || w.Alloc == nil || w.NIC == nil || w.NoiseRNG == nil || w.TimerRNG == nil {
		return fmt.Errorf("testbed: snapshot is missing a component or RNG state")
	}
	s.clock, s.cache, s.alloc, s.nic = w.Clock, w.Cache, w.Alloc, w.NIC
	s.noiseRNG, s.timerRNG = *w.NoiseRNG, *w.TimerRNG
	s.noiseRate, s.timerNoise = w.NoiseRate, w.TimerNoise
	s.noisePeriod, s.noiseNextAt, s.noiseSpace = w.NoisePeriod, w.NoiseNextAt, w.NoiseSpace
	return nil
}

// SetNoiseRate changes the background process's access rate mid-run — the
// online phase of a sweep applies its cell's noise level to a machine
// restored from a snapshot taken under the reference offline environment.
// The next noise event is rescheduled one full period out from now; rate 0
// disables the process.
func (tb *Testbed) SetNoiseRate(rate float64) {
	tb.opts.NoiseRate = rate
	if rate <= 0 {
		tb.noisePeriod = 0
		tb.noiseNextAt = 0
		return
	}
	tb.noisePeriod = sim.CyclesPerSecond(rate)
	tb.noiseNextAt = tb.clock.Now() + tb.noisePeriod
}

// SetTimerNoise changes the spy timer's jitter magnitude mid-run (see
// Options.TimerNoise for the one-sided jitter model).
func (tb *Testbed) SetTimerNoise(jitter uint64) {
	tb.opts.TimerNoise = jitter
}

// OfflineFingerprint is a canonical string over every option that shapes
// the offline phase of an attack: cache geometry and features, NIC/driver
// configuration, and physical memory size. The online-only knobs —
// NoiseRate, TimerNoise — and the seed are deliberately excluded; the
// artifact store combines this fingerprint with the offline seed, so two
// machines with equal fingerprints and seeds are interchangeable bit for
// bit.
func (o Options) OfflineFingerprint() string {
	c := o.Cache
	part := "nil"
	if c.Partition != nil {
		part = fmt.Sprintf("%+v", *c.Partition)
	}
	return fmt.Sprintf("cache{%d/%d/%d hit=%d miss=%d ddio=%v/%d part=%s}|nic%+v|mem=%d",
		c.Slices, c.SetsPerSlice, c.Ways, c.HitLatency, c.MissLatency,
		c.DDIO, c.DDIOWays, part, o.NIC, o.MemBytes)
}

// ReseedOnline re-derives the machine's online random streams — timer
// jitter, background noise, and the driver's reallocation draws — from a
// fresh seed, leaving the clock, cache, memory, and ring state untouched.
// Warm-started trials decorrelate this way: every trial measures the same
// prepared machine, but ambient randomness differs per trial exactly as it
// would across repeated measurements on real hardware.
// The streams are reseeded in place — this runs once per warm trial on the
// rig-lease path and must not allocate.
func (tb *Testbed) ReseedOnline(seed int64) {
	tb.noiseRNG.Reseed(sim.DeriveSeed(seed, "noise-online"))
	tb.timerRNG.Reseed(sim.DeriveSeed(seed, "timer-online"))
	tb.nic.ReseedRNG(seed)
}
