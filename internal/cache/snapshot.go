package cache

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"
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
	return &Snapshot{
		geometry: c.geo,
		meta:     slices.Clone(c.meta),
		stamp:    slices.Clone(c.stamp),
		pstate:   slices.Clone(c.pstate),
		nextID:   c.nextID,
		stats:    c.stats,
	}
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

// Fits reports why the snapshot cannot be restored into a cache built from
// cfg, or nil if it can: it must carry cfg's geometry key, a line per way
// of every set, per-set counters exactly when cfg partitions the cache,
// and quotas within the partition's bounds. Restore panics on the first
// two; a decoded snapshot checks all of them against the configuration it
// is meant for, so a corrupt disk entry misses instead.
func (s *Snapshot) Fits(cfg Config) error {
	if g := geometryKey(cfg); s.geometry != g {
		return fmt.Errorf("cache: snapshot of %q, want %q", s.geometry, g)
	}
	lines, sets := cfg.TotalSets()*cfg.Ways, 0
	if cfg.Partition != nil {
		sets = cfg.TotalSets()
	}
	if len(s.meta) != lines || len(s.stamp) != lines || len(s.pstate) != sets {
		return fmt.Errorf("cache: snapshot holds %d/%d lines and %d set counters, want %d and %d",
			len(s.meta), len(s.stamp), len(s.pstate), lines, sets)
	}
	for i, st := range s.pstate {
		if p := cfg.Partition; st.Quota < p.MinIOWays || st.Quota > p.MaxIOWays {
			return fmt.Errorf("cache: snapshot set %d: I/O quota %d outside [%d, %d]", i, st.Quota, p.MinIOWays, p.MaxIOWays)
		}
	}
	return nil
}

// snapshotGob mirrors Snapshot with exported fields for the disk-backed
// artifact store: the line words and per-set counters exactly as memory
// holds them.
type snapshotGob struct {
	Geometry string
	// Line words, flattened [set*ways+way] like Snapshot.meta and
	// Snapshot.stamp.
	Meta, Stamps []uint64
	// Partition per-set counters (empty when the defense is off).
	Sets   []setState
	NextID uint64
	Stats  Stats
}

// GobEncode serializes the snapshot (disk-backed warm starts). The
// snapshot's contents round-trip exactly; a decoded snapshot restores
// machines bit-identically to the original.
func (s *Snapshot) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(snapshotGob{
		Geometry: s.geometry, Meta: s.meta, Stamps: s.stamp, Sets: s.pstate,
		NextID: s.nextID, Stats: s.stats,
	})
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode rebuilds a snapshot from its serialized form. Line words no
// cache could hold — line and stamp arrays of unequal length, a meta word
// with bits set beside the line address and the valid, dirty and io
// flags, a stamp past the LRU key range — are an error, so a corrupt disk
// artifact misses the cache instead of panicking here or in a lookup.
func (s *Snapshot) GobDecode(b []byte) error {
	var w snapshotGob
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return err
	}
	if len(w.Meta) != len(w.Stamps) {
		return fmt.Errorf("cache: snapshot holds %d meta words and %d stamps", len(w.Meta), len(w.Stamps))
	}
	for i, m := range w.Meta {
		if stray := m & 63 &^ (lineValid | lineDirty | lineIO); stray != 0 {
			return fmt.Errorf("cache: snapshot line %d: meta %#x sets bits %#x outside the line address and flags", i, m, stray)
		}
		if w.Stamps[i] >= maxStamp {
			return fmt.Errorf("cache: snapshot line %d: stamp %#x exceeds the LRU key range", i, w.Stamps[i])
		}
	}
	s.geometry, s.meta, s.stamp, s.pstate = w.Geometry, w.Meta, w.Stamps, w.Sets
	s.nextID, s.stats = w.NextID, w.Stats
	return nil
}
