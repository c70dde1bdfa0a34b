package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/sim"
)

// A cache line's metadata is two words, kept in two parallel flat arrays
// (Cache.meta and Cache.stamp). Data contents are never modeled; the
// attack observes presence, not values.
//
// A meta word holds the line address (addr &^ 63, so the tag is meta >> 6)
// with the valid/dirty/io flags in the offset bits below it, which turns
// the hit test into one compare (holds). Invalidation clears only the
// valid bit: tag, dirty and io survive, as the snapshot wire format
// records them. A stamp word is the line's LRU timestamp, drawn from the
// global access counter; it is at least 1 once the way has been written.
//
// Keeping tags apart from stamps means the hit scan reads only 8-byte tag
// words: a 20-way paper set's tags span 160 bytes instead of the 320 a
// {meta, stamp} struct array interleaves them over.
const (
	lineValid uint64 = 1 << iota
	lineDirty
	lineIO // allocated by DMA (DDIO)
)

// lineKey is the meta word of a valid, clean, CPU-owned line holding addr:
// the comparand of the hit test.
func lineKey(addr uint64) uint64 { return addr&^63 | lineValid }

// holds reports a valid line with key's tag: dirty and io are masked off,
// so one compare checks validity and tag together.
func holds(meta, key uint64) bool { return meta&^(lineDirty|lineIO) == key }

func valid(meta uint64) bool { return meta&lineValid != 0 }
func isIO(meta uint64) bool  { return meta&lineIO != 0 }

// validIO reports a valid, I/O-owned line.
func validIO(meta uint64) bool { return meta&(lineValid|lineIO) == lineValid|lineIO }

// setState carries the per-set counters of the adaptive partitioning
// defense (§VII): the current I/O way quota, and the lazily integrated
// I/O-occupancy counter. Its fields are exported so a snapshot's wire
// form holds the counters as memory does.
type setState struct {
	Quota       int    // IO partition size in ways; ways [0,Quota) are I/O
	LastAdapt   uint64 // cycle of the last quota re-evaluation
	OccupCycles uint64 // cycles with >=1 valid I/O line since LastAdapt
	LastUpd     uint64 // cycle of the last occupancy integration
	HasIO       bool   // >=1 valid I/O line present right now
}

// Stats aggregates cache and memory traffic counters. Reads and writes of
// main memory are counted in cache-line transfers.
type Stats struct {
	CPUAccesses, CPUHits, CPUMisses uint64
	IOWrites, IOHits, IOAllocs      uint64
	MemReads, MemWrites             uint64
	Writebacks                      uint64
	// IOEvictedCPU counts CPU-owned lines evicted by I/O allocations —
	// the microarchitectural event the entire attack is built on. The
	// partitioning defense drives this to zero. IOAllocsInvalid and
	// IOAllocsEvictIO classify the remaining I/O allocations (into empty
	// ways, respectively over older I/O lines).
	IOEvictedCPU    uint64
	IOAllocsInvalid uint64
	IOAllocsEvictIO uint64
	// BoundaryInvalidations counts lines invalidated by partition quota
	// changes.
	BoundaryInvalidations uint64
	// IOBypasses counts DMA writes sent straight to memory because the
	// I/O partition had no usable way (defense mode) or DDIO is off.
	IOBypasses uint64
}

// MissRate returns the CPU miss ratio.
func (s Stats) MissRate() float64 {
	if s.CPUAccesses == 0 {
		return 0
	}
	return float64(s.CPUMisses) / float64(s.CPUAccesses)
}

// Cache is the simulated last-level cache. It is single-goroutine, like the
// rest of the simulation core.
type Cache struct {
	//packetlint:transient configuration, set by New and Rebind (which keeps the shape); snapshots guard it via geo
	cfg Config
	//packetlint:transient wiring to the shared clock, rebound only by New
	clock *sim.Clock
	// meta and stamp are the flat [set*ways+way] line arrays: tag and
	// flags, and LRU stamp. The per-set slice-of-slices layout they
	// replaced cost every access an extra pointer load and bounds check on
	// the simulator's hottest path; setWays carves set views out of the
	// flat arrays with pure index math instead.
	meta  []uint64
	stamp []uint64
	//packetlint:transient cfg.Ways copy, derived at construction
	ways   int        // cfg.Ways, kept flat for the indexing hot path
	pstate []setState // only used when cfg.Partition != nil
	nextID uint64     // LRU stamp source
	stats  Stats
	geo    string // geometryKey(cfg), cached: Restore checks it per lease
	// Set-index math cached out of Config: Config.GlobalSet is a value
	// method, so calling it from the access path copies the whole Config (and
	// re-derives the slice-hash width) on every simulated access — the
	// single hottest call site in the tree. globalSet below reads these
	// three words instead.
	//packetlint:transient derived set-index math, rebuilt by New from cfg
	setMask uint64 // SetsPerSlice - 1
	//packetlint:transient derived set-index math, rebuilt by New from cfg
	sliceBits int // log2(Slices)
	//packetlint:transient derived set-index math, rebuilt by New from cfg
	sps int // SetsPerSlice
}

// globalSet is Config.GlobalSet with the geometry constants precomputed
// and the slice-hash loop unrolled (at most 3 hash bits exist).
func (c *Cache) globalSet(addr uint64) int {
	set := int((addr >> 6) & c.setMask)
	sl := 0
	switch c.sliceBits {
	case 3:
		sl = int(bits.OnesCount64(addr&sliceMasks[2])&1) << 2
		fallthrough
	case 2:
		sl |= int(bits.OnesCount64(addr&sliceMasks[1])&1) << 1
		fallthrough
	case 1:
		sl |= int(bits.OnesCount64(addr&sliceMasks[0]) & 1)
	}
	return sl*c.sps + set
}

// setWays returns the meta and stamp words of one global set as views
// into the flat line arrays.
func (c *Cache) setWays(set int) (meta, stamp []uint64) {
	base := set * c.ways
	return c.meta[base : base+c.ways : base+c.ways], c.stamp[base : base+c.ways : base+c.ways]
}

// New builds a cache; it panics on an invalid config (configs are
// programmer-supplied, not user input).
func New(cfg Config, clock *sim.Clock) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	total := cfg.TotalSets()
	c := &Cache{
		cfg: cfg, clock: clock, ways: cfg.Ways, geo: geometryKey(cfg),
		setMask:   uint64(cfg.SetsPerSlice - 1),
		sliceBits: bits.TrailingZeros(uint(cfg.Slices)),
		sps:       cfg.SetsPerSlice,
	}
	c.meta = make([]uint64, total*cfg.Ways)
	c.stamp = make([]uint64, total*cfg.Ways)
	if cfg.Partition != nil {
		c.pstate = make([]setState, total)
		for i := range c.pstate {
			c.pstate[i].Quota = cfg.Partition.MinIOWays
		}
	}
	return c
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Rebind gives the cache another configuration of the same shape: the
// same slices, sets and ways, and partitioned exactly when it already is,
// so the line arrays and partition counters are reused as they are.
// Latencies, DDIO and the partition parameters may all change. Contents
// are untouched; the caller restores a snapshot taken under cfg next. A
// rebind across shapes panics, since it can only mean two machines got
// crossed. It allocates only when DDIO or the partition parameters
// change, to recompute the geometry key Restore checks.
func (c *Cache) Rebind(cfg Config) {
	old := c.cfg
	if cfg.Slices != old.Slices || cfg.SetsPerSlice != old.SetsPerSlice || cfg.Ways != old.Ways ||
		(cfg.Partition != nil) != (old.Partition != nil) {
		panic(fmt.Sprintf("cache: rebinding %q to a differently shaped %q", c.geo, geometryKey(cfg)))
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c.cfg = cfg
	if cfg.DDIO != old.DDIO || cfg.DDIOWays != old.DDIOWays ||
		(cfg.Partition != nil && *cfg.Partition != *old.Partition) {
		c.geo = geometryKey(cfg)
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters (geometry and contents are untouched).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Read performs a CPU load of the line containing addr, returning whether
// it hit and its latency. The clock is NOT advanced: cores run in parallel,
// so the caller decides whose time the latency is charged to (the spy
// advances the clock around its probes; the driver core's accesses overlap
// with the spy and cost it nothing).
func (c *Cache) Read(addr uint64) (bool, uint64) {
	set := c.globalSet(addr)
	c.maybeAdapt(set)
	hit, lat, _ := c.access(set, lineKey(addr), false)
	return hit, lat
}

// Write performs a CPU store (write-allocate, write-back).
func (c *Cache) Write(addr uint64) (bool, uint64) {
	set := c.globalSet(addr)
	c.maybeAdapt(set)
	hit, lat, _ := c.access(set, lineKey(addr), true)
	return hit, lat
}

// LineRef is a resolved reference to one line address: its global set and
// hit-test key, computed once by Ref, plus the way the line was last seen
// in. It is the simulated hardware's address translation cached for a
// line that is loaded over and over (a spy's probe lines), so ReadRef
// skips the set hashing and, when the way hint is current, the tag scan.
// A ref holds no cache pointer and depends only on the geometry, so it
// stays valid across Restore and in any cache of the same shape; a stale
// way hint only costs ReadRef the ordinary lookup.
type LineRef struct {
	set, way int
	key      uint64
}

// Ref resolves the line containing addr.
func (c *Cache) Ref(addr uint64) LineRef {
	return LineRef{set: c.globalSet(addr), key: lineKey(addr)}
}

// ReadRef is Read of the line r resolves, event for event: the same
// adaptation, counters, stamps, fills and latencies. When r's way hint
// still holds the line it hits with one compare; otherwise it runs the
// shared lookup and victim path and re-points the hint at the way the
// line now occupies. The hint is exact because a valid key sits in at
// most one way of its set (see lookup).
func (c *Cache) ReadRef(r *LineRef) (bool, uint64) {
	c.maybeAdapt(r.set)
	if i := r.set*c.ways + r.way; holds(c.meta[i], r.key) {
		c.stats.CPUAccesses++
		c.stats.CPUHits++
		c.stamp[i] = c.touch()
		return true, c.cfg.HitLatency
	}
	hit, lat, w := c.access(r.set, r.key, false)
	r.way = w
	return hit, lat
}

// LoadWalk loads refs[walk[0]], refs[walk[1]], ... in order, each exactly
// as ReadRef would (hints included), charges each load its latency plus
// overhead cycles of the clock, and returns the summed latency. It is the
// spy's probe walk in one call.
//
// Without the partition defense nothing on the access path reads the
// clock, so the clock advances once, by the whole walk's cycles. With the
// defense, adaptation and occupancy integration read it, so it advances
// load by load.
func (c *Cache) LoadWalk(refs []LineRef, walk []int32, overhead uint64) uint64 {
	var sum uint64
	if c.pstate != nil {
		for _, k := range walk {
			_, lat := c.ReadRef(&refs[k])
			c.clock.Advance(lat + overhead)
			sum += lat
		}
		return sum
	}
	var hits uint64
	for _, k := range walk {
		r := &refs[k]
		if i := r.set*c.ways + r.way; holds(c.meta[i], r.key) {
			hits++
			c.stamp[i] = c.touch()
			continue
		}
		_, lat, w := c.access(r.set, r.key, false)
		r.way = w
		sum += lat
	}
	c.stats.CPUAccesses += hits
	c.stats.CPUHits += hits
	sum += hits * c.cfg.HitLatency
	c.clock.Advance(sum + uint64(len(walk))*overhead)
	return sum
}

// access is the one CPU access path behind Read, Write and ReadRef's
// fallback: look key up in the (already adapted) set, stamp a hit, or
// fill the LRU way of the CPU partition on a miss. It returns the way the
// line occupies afterwards.
func (c *Cache) access(set int, key uint64, store bool) (bool, uint64, int) {
	meta, stamp := c.setWays(set)
	c.stats.CPUAccesses++
	if w := lookup(meta, key); w >= 0 {
		c.stats.CPUHits++
		stamp[w] = c.touch()
		if store {
			meta[w] |= lineDirty
		}
		return true, c.cfg.HitLatency, w
	}
	c.stats.CPUMisses++
	c.stats.MemReads++
	q := 0
	if c.pstate != nil {
		// Defense: CPU lines live in ways [quota, Ways).
		q = c.pstate[set].Quota
	}
	w := q + lruWay(meta[q:], stamp[q:])
	c.evict(meta[w])
	if store {
		key |= lineDirty
	}
	meta[w], stamp[w] = key, c.touch()
	c.refreshHasIO(set)
	return false, c.cfg.MissLatency, w
}

// IOWrite performs a DMA write of the line containing addr. With DDIO the
// line is allocated directly into the LLC (dirty, I/O-owned); without DDIO
// it is written to memory and any cached copy is invalidated (coherence).
// DMA engines run in parallel with the cores, so the clock does not
// advance.
func (c *Cache) IOWrite(addr uint64) {
	set := c.globalSet(addr)
	c.maybeAdapt(set)
	key := lineKey(addr)
	meta, stamp := c.setWays(set)
	c.stats.IOWrites++

	if !c.cfg.DDIO && c.cfg.Partition == nil {
		// Classic DMA: write to DRAM, invalidate stale cached copy.
		c.stats.MemWrites++
		c.stats.IOBypasses++
		if w := lookup(meta, key); w >= 0 {
			meta[w] &^= lineValid
			c.refreshHasIO(set)
		}
		return
	}

	if w := lookup(meta, key); w >= 0 {
		// Update in place. Ownership is preserved: a DMA update of a line
		// a core already owns does not count against the DDIO way cap,
		// which limits allocations, not updates.
		c.stats.IOHits++
		stamp[w] = c.touch()
		meta[w] |= lineDirty
		c.refreshHasIO(set)
		return
	}

	w, ok := c.victimIO(set)
	if !ok {
		// Defense mode with no usable way in the I/O partition: the write
		// bypasses the cache rather than evict a CPU line.
		c.stats.MemWrites++
		c.stats.IOBypasses++
		return
	}
	switch v := meta[w]; {
	case !valid(v):
		c.stats.IOAllocsInvalid++
	case isIO(v):
		c.stats.IOAllocsEvictIO++
	default:
		c.stats.IOEvictedCPU++ // the leak: DMA displaced a CPU line
	}
	c.evict(meta[w])
	meta[w], stamp[w] = key|lineDirty|lineIO, c.touch()
	c.stats.IOAllocs++
	c.refreshHasIO(set)
}

// Flush removes the line containing addr from the cache (clflush),
// writing it back if dirty. No latency is charged; the attack in this
// reproduction never relies on flush timing.
func (c *Cache) Flush(addr uint64) {
	set := c.globalSet(addr)
	meta, _ := c.setWays(set)
	if w := lookup(meta, lineKey(addr)); w >= 0 {
		c.evict(meta[w])
		meta[w] &^= lineValid
		c.refreshHasIO(set)
	}
}

// Contains reports whether the line holding addr is cached. It is a
// simulator-side oracle used by tests and ground-truth collection, never by
// attack code.
func (c *Cache) Contains(addr uint64) bool {
	meta, _ := c.setWays(c.globalSet(addr))
	return lookup(meta, lineKey(addr)) >= 0
}

// IOLinesInSet counts valid I/O-owned lines in the global set (test oracle).
func (c *Cache) IOLinesInSet(set int) int {
	meta, _ := c.setWays(set)
	n := 0
	for _, m := range meta {
		if validIO(m) {
			n++
		}
	}
	return n
}

// QuotaOf returns the current I/O partition quota of a set, or the DDIO way
// cap when the defense is off.
func (c *Cache) QuotaOf(set int) int {
	if c.pstate != nil {
		return c.pstate[set].Quota
	}
	return c.cfg.DDIOWays
}

// touch returns the next LRU stamp. Stamps count accesses from 1, so they
// stay below maxStamp (2⁵⁸) for any run the host could finish.
func (c *Cache) touch() uint64 {
	c.nextID++
	return c.nextID
}

// lookup returns the way whose meta word holds key (see lineKey), or -1.
//
// A valid key sits in at most one way of its set, so the first match is
// the only one: a line is filled (access, IOWrite) only after lookup
// missed it, IOWrite updates a present line in place, and invalidation
// (Flush, no-DDIO IOWrite, partition moves) clears the valid bit. ReadRef's
// way hint relies on this.
func lookup(meta []uint64, key uint64) int {
	for w := range meta {
		if holds(meta[w], key) {
			return w
		}
	}
	return -1
}

// evict writes back the victim, given its meta word, if dirty. The slot is
// left to be overwritten by the caller.
func (c *Cache) evict(meta uint64) {
	if meta&(lineValid|lineDirty) == lineValid|lineDirty {
		c.stats.MemWrites++
		c.stats.Writebacks++
	}
}

// victimIO picks the way an I/O allocation replaces; ok=false means the
// write must bypass the cache.
func (c *Cache) victimIO(set int) (int, bool) {
	meta, stamp := c.setWays(set)
	if c.pstate != nil {
		// Defense: I/O confined to ways [0, quota). The quota region is
		// reserved, so there is always a usable way.
		q := c.pstate[set].Quota
		if q == 0 {
			return 0, false
		}
		return lruWay(meta[:q], stamp[:q]), true
	}
	// Vulnerable DDIO: at most DDIOWays I/O lines per set; if the cap is
	// reached replace the LRU I/O line, otherwise take the global LRU
	// victim — which may well be a CPU (spy) line.
	ioCount := 0
	for _, m := range meta {
		if validIO(m) {
			ioCount++
		}
	}
	if ioCount >= c.cfg.DDIOWays {
		return lruIOWay(meta, stamp), true
	}
	return lruWay(meta, stamp), true
}

// maxStamp bounds LRU stamps: lruWay shifts a stamp left by six bits.
// Snapshot decoding rejects larger ones.
const maxStamp = 1 << 58

// lruWay returns the first invalid way, else the least recently used one,
// as the minimum of a packed key per way: (stamp & -valid)<<6 | way. An
// invalid way's key is its index, below 64. A valid stamp is at least 1
// (touch pre-increments) and unique, so a valid way's key is at least 64
// and no two keys tie. The minimum is therefore the first invalid way when
// one exists, else the oldest valid line, and its low six bits name the
// way. The keys are folded by four independent min chains rather than one
// loop-carried compare-and-move chain, so the host overlaps them. The
// packing needs at most 64 ways (Config.Validate) and stamps below
// maxStamp (see touch).
func lruWay(meta, stamp []uint64) int {
	stamp = stamp[:len(meta)]
	k0, k1, k2, k3 := ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)
	w := 0
	for ; w+4 <= len(meta); w += 4 {
		m, s := meta[w:w+4:w+4], stamp[w:w+4:w+4]
		k0 = min(k0, lruKey(m[0], s[0], w))
		k1 = min(k1, lruKey(m[1], s[1], w+1))
		k2 = min(k2, lruKey(m[2], s[2], w+2))
		k3 = min(k3, lruKey(m[3], s[3], w+3))
	}
	for ; w < len(meta); w++ {
		k0 = min(k0, lruKey(meta[w], stamp[w], w))
	}
	return int(min(k0, k1, k2, k3) & 63)
}

// lruKey is lruWay's packed victim key of way w.
func lruKey(meta, stamp uint64, w int) uint64 {
	return (stamp&-(meta&lineValid))<<6 | uint64(w)
}

// lruIOWay returns the LRU way among valid I/O lines. The caller guarantees
// at least one exists.
func lruIOWay(meta, stamp []uint64) int {
	best, bestStamp := -1, ^uint64(0)
	for w := range meta {
		if validIO(meta[w]) && stamp[w] < bestStamp {
			best, bestStamp = w, stamp[w]
		}
	}
	if best < 0 {
		panic("cache: lruIOWay called with no IO lines")
	}
	return best
}

// refreshHasIO updates the occupancy flag after a content change,
// integrating elapsed occupancy first. Like maybeAdapt, it is split so the
// partition-off check inlines.
func (c *Cache) refreshHasIO(set int) {
	if c.pstate != nil {
		c.refreshOccupancy(set)
	}
}

func (c *Cache) refreshOccupancy(set int) {
	st := &c.pstate[set]
	c.integrateOccupancy(st)
	meta, _ := c.setWays(set)
	has := false
	for _, m := range meta {
		if validIO(m) {
			has = true
			break
		}
	}
	st.HasIO = has
}

func (c *Cache) integrateOccupancy(st *setState) {
	now := c.clock.Now()
	if st.HasIO && now > st.LastUpd {
		st.OccupCycles += now - st.LastUpd
	}
	st.LastUpd = now
}

// maybeAdapt runs the §VII adaptation for the set if at least one period
// has elapsed since its last evaluation. Adaptation is evaluated lazily at
// access time (a hardware implementation walks all sets each period; lazy
// evaluation is equivalent for sets that are actually being touched and
// free for idle sets). When several periods elapsed between touches the
// thresholds scale with the elapsed time.
//
// The partition-off check is split from the adaptation so the compiler
// inlines it into every access.
func (c *Cache) maybeAdapt(set int) {
	if c.pstate != nil {
		c.adapt(set)
	}
}

func (c *Cache) adapt(set int) {
	st := &c.pstate[set]
	p := c.cfg.Partition
	now := c.clock.Now()
	elapsed := now - st.LastAdapt
	if elapsed < p.Period {
		return
	}
	c.integrateOccupancy(st)
	periods := elapsed / p.Period
	switch {
	case st.OccupCycles > p.THigh*periods && st.Quota < p.MaxIOWays:
		st.Quota++
		c.invalidateWay(set, st.Quota-1) // way joins the I/O partition
	case st.OccupCycles < p.TLow*periods && st.Quota > p.MinIOWays:
		c.invalidateWay(set, st.Quota-1) // way leaves the I/O partition
		st.Quota--
	}
	st.OccupCycles = 0
	st.LastAdapt = now
}

// invalidateWay evicts whatever occupies the way that is switching
// partitions, with writeback if dirty (§VII: "we invalidate the cache
// blocks that are affected and perform any necessary writebacks").
func (c *Cache) invalidateWay(set, w int) {
	m := &c.meta[set*c.ways+w]
	if !valid(*m) {
		return
	}
	c.evict(*m)
	*m &^= lineValid
	c.stats.BoundaryInvalidations++
	c.refreshHasIO(set)
}

// String summarizes the cache geometry.
func (c *Cache) String() string {
	mode := "no-DDIO"
	if c.cfg.Partition != nil {
		mode = "adaptive-partition"
	} else if c.cfg.DDIO {
		mode = fmt.Sprintf("DDIO(%d-way)", c.cfg.DDIOWays)
	}
	return fmt.Sprintf("LLC %d KB: %d slices x %d sets x %d ways, %s",
		c.cfg.SizeBytes()/1024, c.cfg.Slices, c.cfg.SetsPerSlice, c.cfg.Ways, mode)
}
