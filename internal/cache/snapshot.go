package cache

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// Snapshot is a deep value copy of a cache's mutable state: line metadata,
// partition counters, the LRU stamp source, and the traffic counters. It is
// immutable once taken, so one snapshot can seed any number of restored
// caches (the warm-start path clones machines concurrently from a shared
// snapshot).
type Snapshot struct {
	geometry string   // config fingerprint guarding against cross-machine restores
	meta     []uint64 // flattened [set*ways+way], like Cache.meta
	stamp    []uint64 // flattened [set*ways+way], like Cache.stamp
	pstate   []setState
	nextID   uint64
	stats    Stats
}

// geometryKey identifies the cache shape a snapshot belongs to. Restoring
// into a differently shaped cache is always a programming error.
func geometryKey(cfg Config) string {
	part := "none"
	if cfg.Partition != nil {
		p := cfg.Partition
		part = fmt.Sprintf("%d-%d-%d-%d-%d", p.MinIOWays, p.MaxIOWays, p.Period, p.TLow, p.THigh)
	}
	return fmt.Sprintf("%dx%dx%d/ddio=%v/%d/part=%s",
		cfg.Slices, cfg.SetsPerSlice, cfg.Ways, cfg.DDIO, cfg.DDIOWays, part)
}

// Snapshot captures the cache's full mutable state. The returned value is
// immutable and safe to restore into any cache of identical geometry.
func (c *Cache) Snapshot() *Snapshot {
	s := &Snapshot{}
	c.SnapshotInto(s)
	return s
}

// SnapshotInto captures the cache's state into a caller-owned scratch
// snapshot, reusing its backing slices. It exists for the offline/build
// path and benchmarks that snapshot repeatedly; a snapshot filed in an
// artifact must be a fresh Snapshot(), since artifacts rely on snapshot
// immutability.
func (c *Cache) SnapshotInto(s *Snapshot) {
	s.geometry = c.geo
	s.meta = mirror(s.meta, c.meta)
	s.stamp = mirror(s.stamp, c.stamp)
	s.pstate = s.pstate[:0]
	if c.pstate != nil {
		s.pstate = append(s.pstate, c.pstate...)
	}
	s.nextID = c.nextID
	s.stats = c.stats
}

// Restore overwrites the cache's mutable state from a snapshot taken on a
// cache with identical geometry. It panics on a geometry mismatch — that
// can only mean two different machines' state got crossed. The comparison
// runs against the key New and Rebind cache, so the whole restore is
// copy-only: the rig-pool lease path runs one per warm trial and stays
// allocation-free.
func (c *Cache) Restore(s *Snapshot) {
	if c.geo != s.geometry {
		panic(fmt.Sprintf("cache: restoring snapshot of %q into %q", s.geometry, c.geo))
	}
	if len(s.meta) != len(c.meta) || len(s.stamp) != len(c.stamp) || len(s.pstate) != len(c.pstate) {
		panic(fmt.Sprintf("cache: restoring %d/%d lines and %d set counters into %d and %d",
			len(s.meta), len(s.stamp), len(s.pstate), len(c.meta), len(c.pstate)))
	}
	copy(c.meta, s.meta)
	copy(c.stamp, s.stamp)
	copy(c.pstate, s.pstate)
	c.nextID = s.nextID
	c.stats = s.stats
}

// mirror copies src into dst, reusing dst's backing array when it has the
// same length and allocating exactly len(src) words otherwise, so a
// snapshot of a paper-scale cache (two 2.5 MiB line arrays) carries no
// slack that would show in peak memory.
func mirror(dst, src []uint64) []uint64 {
	if len(dst) != len(src) {
		dst = make([]uint64, len(src))
	}
	copy(dst, src)
	return dst
}

// snapshotGob mirrors Snapshot with exported fields for the disk-backed
// artifact store: per-field slices rather than the internal structs, so
// the wire format does not depend on unexported layout.
type snapshotGob struct {
	Geometry string
	// Line metadata, flattened [set*ways+way] like Snapshot.meta.
	Tags             []uint64
	Valid, Dirty, IO []bool
	Stamps           []uint64
	// Partition per-set counters (empty when the defense is off).
	Quota                  []int
	LastAdapt, OccupCycles []uint64
	LastUpd                []uint64
	HasIO                  []bool
	NextID                 uint64
	Stats                  Stats
}

// GobEncode serializes the snapshot (disk-backed warm starts). The
// snapshot's contents round-trip exactly; a decoded snapshot restores
// machines bit-identically to the original.
func (s *Snapshot) GobEncode() ([]byte, error) {
	w := snapshotGob{
		Geometry: s.geometry,
		NextID:   s.nextID,
		Stats:    s.stats,
	}
	w.Tags = make([]uint64, len(s.meta))
	w.Valid = make([]bool, len(s.meta))
	w.Dirty = make([]bool, len(s.meta))
	w.IO = make([]bool, len(s.meta))
	w.Stamps = s.stamp
	for i, m := range s.meta {
		w.Tags[i] = m >> 6
		w.Valid[i], w.Dirty[i], w.IO[i] = m&lineValid != 0, m&lineDirty != 0, m&lineIO != 0
	}
	w.Quota = make([]int, len(s.pstate))
	w.LastAdapt = make([]uint64, len(s.pstate))
	w.OccupCycles = make([]uint64, len(s.pstate))
	w.LastUpd = make([]uint64, len(s.pstate))
	w.HasIO = make([]bool, len(s.pstate))
	for i, p := range s.pstate {
		w.Quota[i], w.LastAdapt[i], w.OccupCycles[i], w.LastUpd[i], w.HasIO[i] =
			p.quota, p.lastAdapt, p.occupCycles, p.lastUpd, p.hasIO
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode rebuilds a snapshot from its serialized form. Per-line or
// per-set fields of unequal length are an error, so a corrupt disk
// artifact misses the cache instead of panicking here.
func (s *Snapshot) GobDecode(b []byte) error {
	var w snapshotGob
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return err
	}
	if n := len(w.Tags); len(w.Valid) != n || len(w.Dirty) != n || len(w.IO) != n || len(w.Stamps) != n {
		return fmt.Errorf("cache: snapshot line fields disagree in length: %d tags, %d valid, %d dirty, %d io, %d stamps",
			n, len(w.Valid), len(w.Dirty), len(w.IO), len(w.Stamps))
	}
	if n := len(w.Quota); len(w.LastAdapt) != n || len(w.OccupCycles) != n || len(w.LastUpd) != n || len(w.HasIO) != n {
		return fmt.Errorf("cache: snapshot set counters disagree in length: %d quota, %d last-adapt, %d occupancy, %d last-update, %d has-io",
			n, len(w.LastAdapt), len(w.OccupCycles), len(w.LastUpd), len(w.HasIO))
	}
	s.geometry = w.Geometry
	s.nextID = w.NextID
	s.stats = w.Stats
	s.meta = make([]uint64, len(w.Tags))
	s.stamp = w.Stamps
	for i, tag := range w.Tags {
		if tag > ^uint64(0)>>6 {
			return fmt.Errorf("cache: snapshot line %d: tag %#x exceeds the line-address range", i, tag)
		}
		if w.Stamps[i] >= maxStamp {
			return fmt.Errorf("cache: snapshot line %d: stamp %#x exceeds the LRU key range", i, w.Stamps[i])
		}
		meta := tag << 6
		if w.Valid[i] {
			meta |= lineValid
		}
		if w.Dirty[i] {
			meta |= lineDirty
		}
		if w.IO[i] {
			meta |= lineIO
		}
		s.meta[i] = meta
	}
	s.pstate = nil
	if len(w.Quota) > 0 {
		s.pstate = make([]setState, len(w.Quota))
		for i := range s.pstate {
			s.pstate[i] = setState{
				quota: w.Quota[i], lastAdapt: w.LastAdapt[i],
				occupCycles: w.OccupCycles[i], lastUpd: w.LastUpd[i], hasIO: w.HasIO[i],
			}
		}
	}
	return nil
}
