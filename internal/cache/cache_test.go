package cache

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func newTestCache(cfg Config) (*Cache, *sim.Clock) {
	clock := sim.NewClock()
	return New(cfg, clock), clock
}

func TestConfigValidate(t *testing.T) {
	good := PaperConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Slices = 3
	if bad.Validate() == nil {
		t.Error("non-power-of-two slices must fail")
	}
	bad = good
	bad.DDIOWays = 0
	if bad.Validate() == nil {
		t.Error("DDIO with 0 ways must fail")
	}
	bad = good
	bad.Ways = 65
	if bad.Validate() == nil {
		t.Error("more than 64 ways must fail: the LRU victim key packs the way into six bits")
	}
	bad.Ways = 64
	if err := bad.Validate(); err != nil {
		t.Errorf("64 ways must pass: %v", err)
	}
	bad = good
	bad.Partition = &PartitionConfig{Period: 0}
	if bad.Validate() == nil {
		t.Error("zero partition period must fail")
	}
	bad = good
	bad.Partition = DefaultPartitionConfig()
	bad.Partition.MaxIOWays = good.Ways
	if bad.Validate() == nil {
		t.Error("quota consuming all ways must fail")
	}
}

func TestPaperGeometry(t *testing.T) {
	cfg := PaperConfig()
	if cfg.SizeBytes() != 20*1024*1024 {
		t.Errorf("size %d want 20MB", cfg.SizeBytes())
	}
	if cfg.TotalSets() != 16384 {
		t.Errorf("sets %d want 16384", cfg.TotalSets())
	}
}

func TestReadMissThenHit(t *testing.T) {
	c, clock := newTestCache(ScaledConfig(2, 64, 4))
	addr := uint64(0x1000)
	hit, lat := c.Read(addr)
	if hit || lat != c.cfg.MissLatency {
		t.Errorf("first read: hit=%v lat=%d", hit, lat)
	}
	hit, lat = c.Read(addr)
	if !hit || lat != c.cfg.HitLatency {
		t.Errorf("second read: hit=%v lat=%d", hit, lat)
	}
	if clock.Now() != 0 {
		t.Errorf("cache must not advance the clock; clock=%d", clock.Now())
	}
	st := c.Stats()
	if st.CPUHits != 1 || st.CPUMisses != 1 || st.MemReads != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	cfg := ScaledConfig(1, 64, 4)
	c, _ := newTestCache(cfg)
	set := 7
	addrs := AddrsInGlobalSet(cfg, set, 5, 1)
	// Fill the 4 ways.
	for _, a := range addrs[:4] {
		c.Read(a)
	}
	// Touch addr 0 so addr 1 becomes LRU.
	c.Read(addrs[0])
	// Allocate a 5th line: addrs[1] must be the victim.
	c.Read(addrs[4])
	if !c.Contains(addrs[0]) || c.Contains(addrs[1]) {
		t.Error("LRU victim selection wrong")
	}
	for _, a := range addrs[2:] {
		if !c.Contains(a) {
			t.Errorf("addr %#x should be cached", a)
		}
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	cfg := ScaledConfig(1, 64, 2)
	c, _ := newTestCache(cfg)
	addrs := AddrsInGlobalSet(cfg, 3, 3, 1)
	c.Write(addrs[0]) // dirty
	c.Read(addrs[1])
	c.Read(addrs[2]) // evicts dirty addrs[0]
	st := c.Stats()
	if st.Writebacks != 1 || st.MemWrites != 1 {
		t.Errorf("writebacks=%d memwrites=%d want 1,1", st.Writebacks, st.MemWrites)
	}
}

func TestFlush(t *testing.T) {
	c, _ := newTestCache(ScaledConfig(1, 64, 2))
	c.Write(0x40)
	c.Flush(0x40)
	if c.Contains(0x40) {
		t.Error("flushed line still present")
	}
	if c.Stats().Writebacks != 1 {
		t.Error("dirty flush must write back")
	}
	c.Flush(0x9999999) // flushing an absent line is a no-op
}

func TestDDIOAllocatesInCache(t *testing.T) {
	c, _ := newTestCache(ScaledConfig(1, 64, 4))
	c.IOWrite(0x80)
	if !c.Contains(0x80) {
		t.Error("DDIO write must allocate in LLC")
	}
	if c.Stats().MemWrites != 0 {
		t.Error("DDIO write must not touch memory")
	}
	// Driver read of the packet hits.
	hit, _ := c.Read(0x80)
	if !hit {
		t.Error("driver read of DDIO line should hit")
	}
}

func TestNoDDIOWritesToMemory(t *testing.T) {
	cfg := ScaledConfig(1, 64, 4)
	cfg.DDIO = false
	c, _ := newTestCache(cfg)
	c.Read(0x80) // warm a copy
	c.IOWrite(0x80)
	if c.Contains(0x80) {
		t.Error("non-DDIO DMA must invalidate the cached copy")
	}
	st := c.Stats()
	if st.MemWrites != 1 || st.IOBypasses != 1 {
		t.Errorf("stats %+v", st)
	}
	// Subsequent driver read misses (demand fetch from DRAM).
	hit, _ := c.Read(0x80)
	if hit {
		t.Error("read after non-DDIO DMA must miss")
	}
}

func TestDDIOWayCapNeverExceeded(t *testing.T) {
	cfg := ScaledConfig(1, 64, 8)
	cfg.DDIOWays = 2
	c, _ := newTestCache(cfg)
	set := 5
	addrs := AddrsInGlobalSet(cfg, set, 10, 1)
	for _, a := range addrs {
		c.IOWrite(a)
		if n := c.IOLinesInSet(set); n > 2 {
			t.Fatalf("IO lines in set = %d exceeds DDIO cap 2", n)
		}
	}
}

func TestDDIOEvictsCPULines(t *testing.T) {
	// The vulnerability: a set full of spy lines, one DMA write, one spy
	// line gone.
	cfg := ScaledConfig(1, 64, 4)
	c, _ := newTestCache(cfg)
	set := 9
	addrs := AddrsInGlobalSet(cfg, set, 5, 1)
	spy := addrs[:4]
	for _, a := range spy {
		c.Read(a)
	}
	c.IOWrite(addrs[4])
	evicted := 0
	for _, a := range spy {
		if !c.Contains(a) {
			evicted++
		}
	}
	if evicted != 1 {
		t.Errorf("evicted %d spy lines want exactly 1", evicted)
	}
	if c.Stats().IOEvictedCPU != 1 {
		t.Errorf("IOEvictedCPU=%d want 1", c.Stats().IOEvictedCPU)
	}
}

func TestPrimeProbeDetectsPacket(t *testing.T) {
	// End-to-end property the whole attack rests on: priming a set and
	// re-probing costs Ways hits when idle; after a DMA write at least one
	// probe access misses.
	cfg := ScaledConfig(2, 128, 8)
	c, _ := newTestCache(cfg)
	set := 42
	addrs := AddrsInGlobalSet(cfg, set, cfg.Ways+1, 1)
	probeSet := addrs[:cfg.Ways]
	packet := addrs[cfg.Ways]

	prime := func() {
		for _, a := range probeSet {
			c.Read(a)
		}
	}
	probe := func() (lat uint64) {
		for _, a := range probeSet {
			_, l := c.Read(a)
			lat += l
		}
		return lat
	}
	prime()
	idleLat := probe()
	if idleLat != uint64(cfg.Ways)*cfg.HitLatency {
		t.Fatalf("idle probe latency %d want all hits %d", idleLat, uint64(cfg.Ways)*cfg.HitLatency)
	}
	c.IOWrite(packet)
	busyLat := probe()
	if busyLat <= idleLat {
		t.Errorf("probe after DMA (%d) should exceed idle probe (%d)", busyLat, idleLat)
	}
}

func TestStatsResetKeepsContents(t *testing.T) {
	c, _ := newTestCache(ScaledConfig(1, 64, 2))
	c.Read(0x40)
	c.ResetStats()
	if c.Stats().CPUAccesses != 0 {
		t.Error("stats not reset")
	}
	if !c.Contains(0x40) {
		t.Error("reset must not drop contents")
	}
}

func TestCacheInvariantsUnderRandomTraffic(t *testing.T) {
	f := func(seed int64) bool {
		cfg := ScaledConfig(2, 64, 4)
		c, clock := newTestCache(cfg)
		rng := sim.NewRNG(seed)
		for i := 0; i < 3000; i++ {
			addr := uint64(rng.Intn(1 << 20))
			switch rng.Intn(4) {
			case 0:
				c.Read(addr)
			case 1:
				c.Write(addr)
			case 2:
				c.IOWrite(addr)
			case 3:
				c.Flush(addr)
			}
			clock.Advance(uint64(rng.Intn(50)))
		}
		st := c.Stats()
		// Conservation: every CPU miss is a memory read.
		if st.MemReads != st.CPUMisses {
			return false
		}
		// DDIO cap holds everywhere.
		for s := 0; s < cfg.TotalSets(); s++ {
			if c.IOLinesInSet(s) > cfg.DDIOWays {
				return false
			}
		}
		return st.CPUHits+st.CPUMisses == st.CPUAccesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// refCache is the reference model the packed cache is differentially
// tested against: the unpacked 24-byte line layout (tag and three bools)
// with the original branchy algorithms — a separate tag lookup, then a
// victim scan that returns the first invalid way or else the LRU — for
// every operation that reads or writes line state, partition adaptation
// and boundary invalidation included.
type refCache struct {
	cfg    Config
	clock  *sim.Clock
	lines  []refLine
	pstate []setState
	nextID uint64
	stats  Stats
}

type refLine struct {
	tag              uint64
	valid, dirty, io bool
	stamp            uint64
}

func newRefCache(cfg Config, clock *sim.Clock) *refCache {
	r := &refCache{cfg: cfg, clock: clock, lines: make([]refLine, cfg.TotalSets()*cfg.Ways)}
	if cfg.Partition != nil {
		r.pstate = make([]setState, cfg.TotalSets())
		for i := range r.pstate {
			r.pstate[i].Quota = cfg.Partition.MinIOWays
		}
	}
	return r
}

func (r *refCache) ways(set int) []refLine {
	return r.lines[set*r.cfg.Ways : (set+1)*r.cfg.Ways]
}

func (r *refCache) touch() uint64 { r.nextID++; return r.nextID }

func refLookup(ways []refLine, tag uint64) int {
	for w := range ways {
		if ways[w].tag == tag && ways[w].valid {
			return w
		}
	}
	return -1
}

func refLRU(ways []refLine) int {
	best, bestStamp := 0, ^uint64(0)
	for w := range ways {
		if !ways[w].valid {
			return w
		}
		if ways[w].stamp < bestStamp {
			best, bestStamp = w, ways[w].stamp
		}
	}
	return best
}

func (r *refCache) evict(l *refLine) {
	if l.valid && l.dirty {
		r.stats.MemWrites++
		r.stats.Writebacks++
	}
}

func (r *refCache) access(addr uint64, store bool) (bool, uint64) {
	set := r.cfg.GlobalSet(addr)
	r.maybeAdapt(set)
	tag, ways := addr>>6, r.ways(set)
	r.stats.CPUAccesses++
	if w := refLookup(ways, tag); w >= 0 {
		r.stats.CPUHits++
		ways[w].stamp = r.touch()
		if store {
			ways[w].dirty = true
		}
		return true, r.cfg.HitLatency
	}
	r.stats.CPUMisses++
	r.stats.MemReads++
	q := 0
	if r.pstate != nil {
		q = r.pstate[set].Quota
	}
	w := refLRU(ways[q:]) + q
	r.evict(&ways[w])
	ways[w] = refLine{tag: tag, valid: true, dirty: store, stamp: r.touch()}
	r.refreshHasIO(set)
	return false, r.cfg.MissLatency
}

func (r *refCache) ioWrite(addr uint64) {
	set := r.cfg.GlobalSet(addr)
	r.maybeAdapt(set)
	tag, ways := addr>>6, r.ways(set)
	r.stats.IOWrites++
	if !r.cfg.DDIO && r.cfg.Partition == nil {
		r.stats.MemWrites++
		r.stats.IOBypasses++
		if w := refLookup(ways, tag); w >= 0 {
			ways[w].valid = false
			r.refreshHasIO(set)
		}
		return
	}
	if w := refLookup(ways, tag); w >= 0 {
		r.stats.IOHits++
		ways[w].stamp = r.touch()
		ways[w].dirty = true
		r.refreshHasIO(set)
		return
	}
	var w int
	if r.pstate != nil {
		q := r.pstate[set].Quota
		if q == 0 {
			r.stats.MemWrites++
			r.stats.IOBypasses++
			return
		}
		w = refLRU(ways[:q])
	} else {
		ioCount, lruIO, lruIOStamp := 0, -1, ^uint64(0)
		for i, l := range ways {
			if l.valid && l.io {
				ioCount++
				if l.stamp < lruIOStamp {
					lruIO, lruIOStamp = i, l.stamp
				}
			}
		}
		w = refLRU(ways)
		if ioCount >= r.cfg.DDIOWays {
			w = lruIO
		}
	}
	switch {
	case !ways[w].valid:
		r.stats.IOAllocsInvalid++
	case ways[w].io:
		r.stats.IOAllocsEvictIO++
	default:
		r.stats.IOEvictedCPU++
	}
	r.evict(&ways[w])
	ways[w] = refLine{tag: tag, valid: true, dirty: true, io: true, stamp: r.touch()}
	r.stats.IOAllocs++
	r.refreshHasIO(set)
}

func (r *refCache) flush(addr uint64) {
	set := r.cfg.GlobalSet(addr)
	ways := r.ways(set)
	if w := refLookup(ways, addr>>6); w >= 0 {
		r.evict(&ways[w])
		ways[w].valid = false
		r.refreshHasIO(set)
	}
}

func (r *refCache) refreshHasIO(set int) {
	if r.pstate == nil {
		return
	}
	st := &r.pstate[set]
	r.integrate(st)
	st.HasIO = false
	for _, l := range r.ways(set) {
		if l.valid && l.io {
			st.HasIO = true
		}
	}
}

func (r *refCache) integrate(st *setState) {
	now := r.clock.Now()
	if st.HasIO && now > st.LastUpd {
		st.OccupCycles += now - st.LastUpd
	}
	st.LastUpd = now
}

func (r *refCache) maybeAdapt(set int) {
	if r.pstate == nil {
		return
	}
	st, p, now := &r.pstate[set], r.cfg.Partition, r.clock.Now()
	elapsed := now - st.LastAdapt
	if elapsed < p.Period {
		return
	}
	r.integrate(st)
	periods := elapsed / p.Period
	switch {
	case st.OccupCycles > p.THigh*periods && st.Quota < p.MaxIOWays:
		st.Quota++
		r.invalidate(set, st.Quota-1)
	case st.OccupCycles < p.TLow*periods && st.Quota > p.MinIOWays:
		r.invalidate(set, st.Quota-1)
		st.Quota--
	}
	st.OccupCycles = 0
	st.LastAdapt = now
}

func (r *refCache) invalidate(set, w int) {
	l := &r.ways(set)[w]
	if !l.valid {
		return
	}
	r.evict(l)
	l.valid = false
	r.stats.BoundaryInvalidations++
	r.refreshHasIO(set)
}

// diffState reports the first difference between the packed cache and the
// reference: counters, LRU stamp source, partition state, then every
// line's tag, flags and stamp (invalid lines included — the snapshot wire
// format records their stale contents too).
func diffState(c *Cache, r *refCache) string {
	if c.stats != r.stats {
		return fmt.Sprintf("stats: packed %+v, reference %+v", c.stats, r.stats)
	}
	if c.nextID != r.nextID {
		return fmt.Sprintf("nextID: packed %d, reference %d", c.nextID, r.nextID)
	}
	for i := range r.pstate {
		if c.pstate[i] != r.pstate[i] {
			return fmt.Sprintf("set %d partition state: packed %+v, reference %+v", i, c.pstate[i], r.pstate[i])
		}
	}
	for i, want := range r.lines {
		m := c.meta[i]
		got := refLine{tag: m >> 6, valid: m&lineValid != 0, dirty: m&lineDirty != 0,
			io: m&lineIO != 0, stamp: c.stamp[i]}
		if got != want || m&(63&^(lineValid|lineDirty|lineIO)) != 0 {
			return fmt.Sprintf("line %d: packed %+v (meta %#x), reference %+v", i, got, m, want)
		}
	}
	return ""
}

// TestCPUAccessMatchesReference drives the packed cache and the unpacked
// reference model through identical mixed streams of CPU loads and
// stores, DMA writes, flushes and idle time — with DDIO, with the
// partition defense (whose quota moves restrict the victim range and
// invalidate boundary ways), and with DDIO off — and demands identical
// hit/miss decisions and latencies at every step and identical full state
// (stats, partition counters, every line) throughout. Victim choice —
// first invalid way, else lowest stamp — is the part the four-chain
// packed-key minimum could silently get wrong, so it runs at 4 ways (one
// chain width, no tail), 11 (two widths and a tail of three) and the
// paper's 20; an address space of eight lines per cached line keeps sets
// full and partially invalid often.
func TestCPUAccessMatchesReference(t *testing.T) {
	for _, name := range []string{"ddio", "partition", "no-ddio"} {
		t.Run(name, func(t *testing.T) {
			for _, ways := range []int{4, 11, 20} {
				t.Run(fmt.Sprintf("%dway", ways), func(t *testing.T) {
					checkCPUAccessMatchesReference(t, name, ways)
				})
			}
		})
	}
}

// differentialConfig is the cache the differential tests run under name
// ("ddio", "partition" or "no-ddio") at the given associativity.
func differentialConfig(name string, ways int) Config {
	cfg := ScaledConfig(2, 64, ways)
	switch name {
	case "partition":
		cfg.Partition = DefaultPartitionConfig()
	case "no-ddio":
		cfg.DDIO = false
	}
	return cfg
}

// duplicateKey reports a valid key held by two ways of one set, the
// state ReadRef's way hint must never meet (see lookup).
func duplicateKey(c *Cache, set int) string {
	meta, _ := c.setWays(set)
	for i, m := range meta {
		if !valid(m) {
			continue
		}
		for j := i + 1; j < len(meta); j++ {
			if holds(meta[j], lineKey(m)) {
				return fmt.Sprintf("set %d holds line %#x in ways %d and %d", set, m&^63, i, j)
			}
		}
	}
	return ""
}

func checkCPUAccessMatchesReference(t *testing.T, name string, ways int) {
	cfg := differentialConfig(name, ways)
	clock := sim.NewClock()
	got, want := New(cfg, clock), newRefCache(cfg, clock)
	rng := sim.NewRNG(41)
	for i := 0; i < 40000; i++ {
		addr := uint64(rng.Intn(ways << 16))
		switch op := rng.Intn(16); {
		case op < 10:
			store := op >= 7
			access := got.Read
			if store {
				access = got.Write
			}
			gh, gl := access(addr)
			wh, wl := want.access(addr, store)
			if gh != wh || gl != wl {
				t.Fatalf("access %d addr %#x: packed (%v,%d) != reference (%v,%d)", i, addr, gh, gl, wh, wl)
			}
		case op < 14:
			got.IOWrite(addr)
			want.ioWrite(addr)
		default:
			got.Flush(addr)
			want.flush(addr)
		}
		// Mostly short gaps, occasionally one past the partition
		// period so quotas move and boundary ways get invalidated.
		d := uint64(rng.Intn(300))
		if rng.Intn(64) == 0 {
			d = uint64(rng.Intn(400_000))
		}
		clock.Advance(d)
		// An op changes only the set addr maps to, so checking that set
		// after every op checks every set throughout.
		if dup := duplicateKey(got, got.globalSet(addr)); dup != "" {
			t.Fatalf("after op %d: %s", i, dup)
		}
		if i%997 == 0 {
			if diff := diffState(got, want); diff != "" {
				t.Fatalf("after op %d: %s", i, diff)
			}
		}
	}
	if diff := diffState(got, want); diff != "" {
		t.Fatalf("final state: %s", diff)
	}
	if name == "partition" && got.stats.BoundaryInvalidations == 0 {
		t.Fatal("stream never moved a partition boundary over a valid line")
	}
}

// TestLRUWayMatchesReference checks the packed-key victim search against
// the branchy reference scan at every associativity up to the 64-way
// limit, on sets with no, some and all ways invalid. Stamps are distinct
// and, like real ones, may be stale on invalid ways.
func TestLRUWayMatchesReference(t *testing.T) {
	rng := sim.NewRNG(5)
	for n := 1; n <= 64; n++ {
		for trial := 0; trial < 200; trial++ {
			meta, stamp, ref := make([]uint64, n), make([]uint64, n), make([]refLine, n)
			perm := rng.Perm(n)
			pInvalid := []float64{0, 0.1, 0.5, 1}[trial%4]
			for w := range meta {
				stamp[w] = uint64(perm[w])<<20 | uint64(rng.Intn(1<<20)) + 1
				ref[w] = refLine{valid: rng.Float64() >= pInvalid, stamp: stamp[w]}
				if ref[w].valid {
					meta[w] = lineValid
				}
			}
			if got, want := lruWay(meta, stamp), refLRU(ref); got != want {
				t.Fatalf("%d ways, meta %x stamps %v: lruWay %d, reference %d", n, meta, stamp, got, want)
			}
		}
	}
}

func TestString(t *testing.T) {
	c, _ := newTestCache(PaperConfig())
	if s := c.String(); s == "" {
		t.Error("empty description")
	}
}
