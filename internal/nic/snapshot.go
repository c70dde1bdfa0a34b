package nic

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Snapshot is a deep copy of the driver model's mutable state: the rx ring
// (descriptor pages change under reallocation and the §VI defenses), the
// head cursor, DMA-completed frames awaiting driver processing, the skb
// cursor and pool, the randomization counters, the driver counters, and
// the driver RNG's state.
type Snapshot struct {
	ring     []descriptor
	head     int
	queue    []pending
	skb      []mem.Addr
	skbIdx   int
	descRing mem.Addr
	sincePct int
	stats    Stats
	rng      sim.RNGState
}

// NewShell builds a driver model shaped for cfg without allocating any
// buffer, skb, or descriptor-ring pages — a restore target for the
// machine-clone path, where Restore immediately overwrites every page
// address and the RNG state with the snapshot's. Geometry validation
// matches New, and rng must not be nil; a shell that is never restored has
// a zeroed ring and must not receive traffic.
func NewShell(cfg Config, c *cache.Cache, alloc *mem.Allocator, clock *sim.Clock, rng *sim.RNG) (*NIC, error) {
	if cfg.RingSize <= 0 || cfg.BufferSize <= 0 || cfg.BufferSize > mem.PageSize {
		return nil, fmt.Errorf("nic: invalid ring/buffer geometry %d/%d", cfg.RingSize, cfg.BufferSize)
	}
	if cfg.SKBPages <= 0 {
		cfg.SKBPages = 1
	}
	return &NIC{
		cfg: cfg, cache: c, alloc: alloc, clock: clock, rng: rng,
		ring: make([]descriptor, cfg.RingSize),
		skb:  make([]mem.Addr, cfg.SKBPages),
	}, nil
}

// Snapshot captures the NIC+driver state. The returned value is immutable
// and safe to restore into any NIC with the same ring geometry.
func (n *NIC) Snapshot() *Snapshot {
	return &Snapshot{
		ring:     slices.Clone(n.ring),
		head:     n.head,
		queue:    slices.Clone(n.queue),
		skb:      slices.Clone(n.skb),
		skbIdx:   n.skbIdx,
		descRing: n.descRing,
		sincePct: n.sincePct,
		stats:    n.stats,
		rng:      n.rng.Snapshot(),
	}
}

// Restore overwrites the NIC's mutable state from a snapshot taken on a
// NIC with the same ring geometry, reusing the NIC's existing backing
// arrays: steady-state restores (one per rig-pool lease) are pure copies
// with zero allocations. It panics on a geometry mismatch.
func (n *NIC) Restore(s *Snapshot) {
	if len(s.ring) != len(n.ring) || len(s.skb) != len(n.skb) {
		panic(fmt.Sprintf("nic: restoring %d-desc/%d-skb snapshot into %d-desc/%d-skb driver",
			len(s.ring), len(s.skb), len(n.ring), len(n.skb)))
	}
	copy(n.ring, s.ring)
	n.head = s.head
	n.queue = append(n.queue[:0], s.queue...)
	copy(n.skb, s.skb)
	n.skbIdx = s.skbIdx
	n.descRing = s.descRing
	n.sincePct = s.sincePct
	n.stats = s.stats
	n.rng.Restore(&s.rng)
}

// Fits reports why the snapshot cannot be restored into a driver built
// from cfg, or nil if it can (Restore panics on another ring or skb pool
// size).
func (s *Snapshot) Fits(cfg Config) error {
	if skb := max(cfg.SKBPages, 1); len(s.ring) != cfg.RingSize || len(s.skb) != skb {
		return fmt.Errorf("nic: snapshot of a %d-desc/%d-skb driver, want %d-desc/%d-skb",
			len(s.ring), len(s.skb), cfg.RingSize, skb)
	}
	return nil
}

// snapshotGob mirrors Snapshot with exported fields for the disk-backed
// artifact store.
type snapshotGob struct {
	Ring     []descriptor
	Head     int
	Queue    []pending
	SKB      []mem.Addr
	SKBIdx   int
	DescRing mem.Addr
	SincePct int
	Stats    Stats
	RNG      *sim.RNGState // a pointer, so a missing state decodes as nil
}

// GobEncode serializes the NIC snapshot (disk-backed warm starts).
func (s *Snapshot) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(snapshotGob{
		Ring: s.ring, Head: s.head, Queue: s.queue, SKB: s.skb, SKBIdx: s.skbIdx,
		DescRing: s.descRing, SincePct: s.sincePct, Stats: s.stats, RNG: &s.rng,
	})
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode rebuilds a NIC snapshot from its serialized form. It rejects
// cursors and queued descriptor indices outside the ring and skb pool,
// which would otherwise decode cleanly and panic on the next Receive, and
// a missing driver RNG state.
func (s *Snapshot) GobDecode(b []byte) error {
	var w snapshotGob
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return err
	}
	if w.Head < 0 || w.Head >= len(w.Ring) {
		return fmt.Errorf("nic: snapshot head %d outside %d-descriptor ring", w.Head, len(w.Ring))
	}
	if w.SKBIdx < 0 || w.SKBIdx >= len(w.SKB) {
		return fmt.Errorf("nic: snapshot skb cursor %d outside %d-page pool", w.SKBIdx, len(w.SKB))
	}
	for _, p := range w.Queue {
		if p.DescIdx < 0 || p.DescIdx >= len(w.Ring) {
			return fmt.Errorf("nic: queued descriptor %d outside %d-descriptor ring", p.DescIdx, len(w.Ring))
		}
	}
	if w.RNG == nil {
		return fmt.Errorf("nic: snapshot has no driver RNG state")
	}
	s.ring, s.head, s.queue, s.skb, s.skbIdx = w.Ring, w.Head, w.Queue, w.SKB, w.SKBIdx
	s.descRing, s.sincePct, s.stats, s.rng = w.DescRing, w.SincePct, w.Stats, *w.RNG
	return nil
}

// ReseedRNG re-derives the driver's RNG stream from a fresh seed — the
// online-phase decorrelation hook (testbed.ReseedOnline). The driver draws
// randomness only for buffer reallocation, so with ReallocProb == 0 and no
// §VI defense this is a no-op in effect. The RNG is reseeded in place (the
// rig-lease path reseeds once per warm trial).
func (n *NIC) ReseedRNG(seed int64) {
	n.rng.Reseed(sim.DeriveSeed(seed, "driver-online"))
}
