package nic

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// Snapshot is a deep copy of the driver model's mutable state: the rx ring
// (descriptor pages change under reallocation and the §VI defenses), the
// head cursor, DMA-completed frames awaiting driver processing, the skb
// cursor and pool, the randomization counters, the driver counters, and
// the driver RNG's stream position.
type Snapshot struct {
	ring     []descriptor
	head     int
	queue    []pending
	skb      []mem.Addr
	skbIdx   int
	descRing mem.Addr
	sincePct int
	stats    Stats
	rng      *sim.RNGState // nil when the driver was built without an RNG
}

// NewShell builds a driver model shaped for cfg without allocating any
// buffer, skb, or descriptor-ring pages — a restore target for the
// machine-clone path, where Restore immediately overwrites every page
// address with the snapshot's. Geometry validation matches New; a shell
// that is never restored has a zeroed ring and must not receive traffic.
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
	s := &Snapshot{}
	n.SnapshotInto(s) // s.rng starts nil, so the snapshot owns a fresh RNG state
	return s
}

// SnapshotInto captures the NIC+driver state into a caller-owned scratch
// snapshot, reusing its backing slices (and the RNG-state box, once one
// exists). It exists for the offline/build path and benchmarks that
// snapshot repeatedly; a snapshot filed in an artifact must be a fresh
// Snapshot(), since artifacts rely on snapshot immutability.
func (n *NIC) SnapshotInto(s *Snapshot) {
	s.ring = append(s.ring[:0], n.ring...)
	s.head = n.head
	s.queue = append(s.queue[:0], n.queue...)
	s.skb = append(s.skb[:0], n.skb...)
	s.skbIdx = n.skbIdx
	s.descRing = n.descRing
	s.sincePct = n.sincePct
	s.stats = n.stats
	switch {
	case n.rng == nil:
		s.rng = nil
	case s.rng == nil:
		st := n.rng.Snapshot()
		s.rng = &st
	default:
		n.rng.SnapshotInto(s.rng)
	}
}

// Restore overwrites the NIC's mutable state from a snapshot taken on a
// NIC with the same ring geometry. It panics on a geometry mismatch.
func (n *NIC) Restore(s *Snapshot) {
	n.restoreCore(s)
	switch {
	case s.rng == nil:
		n.rng = nil
	case n.rng == nil:
		n.rng = sim.NewRNG(s.rng.Seed)
		n.rng.Restore(*s.rng)
	default:
		n.rng.Restore(*s.rng)
	}
}

// RestoreSkipRNG is Restore minus the driver-RNG restore, for callers that
// reseed the RNG immediately afterwards (testbed.AdoptSnapshotReseeded): restoring
// a position only to throw it away is wasted work, and for a snapshot
// decoded from disk it means replaying the whole offline draw history. The
// RNG keeps its nil-ness in sync with
// the snapshot so the subsequent ReseedRNG sees the right shape.
func (n *NIC) RestoreSkipRNG(s *Snapshot) {
	n.restoreCore(s)
	switch {
	case s.rng == nil:
		n.rng = nil
	case n.rng == nil:
		n.rng = sim.NewRNG(s.rng.Seed)
	}
}

// restoreCore copies everything but the RNG, reusing the NIC's existing
// backing arrays — steady-state restores (one per rig-pool lease) are pure
// memcpys with zero allocations.
func (n *NIC) restoreCore(s *Snapshot) {
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
}

// descriptorGob and pendingGob mirror the unexported ring structs with
// exported fields for the disk-backed artifact store.
type descriptorGob struct {
	Page   mem.Addr
	Offset uint32
}

type pendingGob struct {
	Frame   netmodel.Frame
	DescIdx int
	Buf     mem.Addr
	DueAt   uint64
}

type snapshotGob struct {
	Ring     []descriptorGob
	Head     int
	Queue    []pendingGob
	SKB      []mem.Addr
	SKBIdx   int
	DescRing mem.Addr
	SincePct int
	Stats    Stats
	RNG      *sim.RNGState
}

// GobEncode serializes the NIC snapshot (disk-backed warm starts).
func (s *Snapshot) GobEncode() ([]byte, error) {
	w := snapshotGob{
		Head: s.head, SKB: s.skb, SKBIdx: s.skbIdx,
		DescRing: s.descRing, SincePct: s.sincePct, Stats: s.stats, RNG: s.rng,
	}
	w.Ring = make([]descriptorGob, len(s.ring))
	for i, d := range s.ring {
		w.Ring[i] = descriptorGob{Page: d.page, Offset: d.offset}
	}
	w.Queue = make([]pendingGob, len(s.queue))
	for i, p := range s.queue {
		w.Queue[i] = pendingGob{Frame: p.frame, DescIdx: p.descIdx, Buf: p.buf, DueAt: p.dueAt}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode rebuilds a NIC snapshot from its serialized form. It rejects
// cursors and queued descriptor indices outside the ring and skb pool,
// which would otherwise decode cleanly and panic on the next Receive.
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
	s.head, s.skb, s.skbIdx = w.Head, w.SKB, w.SKBIdx
	s.descRing, s.sincePct, s.stats, s.rng = w.DescRing, w.SincePct, w.Stats, w.RNG
	s.ring = make([]descriptor, len(w.Ring))
	for i, d := range w.Ring {
		s.ring[i] = descriptor{page: d.Page, offset: d.Offset}
	}
	s.queue = nil
	if len(w.Queue) > 0 {
		s.queue = make([]pending, len(w.Queue))
		for i, p := range w.Queue {
			s.queue[i] = pending{frame: p.Frame, descIdx: p.DescIdx, buf: p.Buf, dueAt: p.DueAt}
		}
	}
	return nil
}

// ReseedRNG re-derives the driver's RNG stream from a fresh seed — the
// online-phase decorrelation hook (testbed.ReseedOnline). The driver draws
// randomness only for buffer reallocation, so with ReallocProb == 0 and no
// §VI defense this is a no-op in effect. An existing RNG is reseeded in
// place (the rig-lease path reseeds once per warm trial).
func (n *NIC) ReseedRNG(seed int64) {
	s := sim.DeriveSeed(seed, "driver-online")
	if n.rng != nil {
		n.rng.Reseed(s)
		return
	}
	n.rng = sim.NewRNG(s)
}
