package cache

import (
	"bytes"
	"encoding/gob"
	"slices"
	"testing"

	"repro/internal/sim"
)

// opStream decodes a byte stream into cache operations — the shared
// driver of the snapshot round-trip property and fuzz tests. Each op is
// two bytes: kind and an address selector kept small so ops collide in
// sets often (collisions are where eviction state lives).
type opStream struct {
	data []byte
	pos  int
}

func (s *opStream) next() (kind byte, addr uint64, ok bool) {
	if s.pos+2 > len(s.data) {
		return 0, 0, false
	}
	kind = s.data[s.pos] % 5
	addr = uint64(s.data[s.pos+1]) * 64 // one of 256 lines, always set-colliding at demo scale
	s.pos += 2
	return kind, addr, true
}

// applyOp runs one op, returning an observation fingerprint (hit flags,
// latency) that replay must reproduce exactly.
func applyOp(c *Cache, clock *sim.Clock, kind byte, addr uint64) uint64 {
	switch kind {
	case 0:
		hit, lat := c.Read(addr)
		clock.Advance(lat)
		if hit {
			return lat | 1<<32
		}
		return lat
	case 1:
		hit, lat := c.Write(addr)
		clock.Advance(lat)
		if hit {
			return lat | 1<<32
		}
		return lat
	case 2:
		c.IOWrite(addr)
		return 0
	case 3:
		c.Flush(addr)
		return 0
	default:
		clock.Advance(100)
		if c.Contains(addr) {
			return 1
		}
		return 0
	}
}

// checkSnapshotReplay is the property: for any op prefix and suffix,
// snapshot-after-prefix, run-suffix, restore, run-suffix-again must
// observe identical results and identical final state.
func checkSnapshotReplay(t *testing.T, cfg Config, data []byte) {
	t.Helper()
	if len(data) < 4 {
		return
	}
	clock := sim.NewClock()
	c := New(cfg, clock)
	cut := int(data[0]) % (len(data) / 2)
	stream := &opStream{data: data[1:]}
	for i := 0; i < cut; i++ {
		kind, addr, ok := stream.next()
		if !ok {
			break
		}
		applyOp(c, clock, kind, addr)
	}
	snap := c.Snapshot()
	clockSnap := clock.Snapshot()
	suffixStart := stream.pos

	var first []uint64
	for {
		kind, addr, ok := stream.next()
		if !ok {
			break
		}
		first = append(first, applyOp(c, clock, kind, addr))
	}
	finalFirst := c.Snapshot()

	c.Restore(snap)
	clock.Restore(clockSnap)
	stream.pos = suffixStart
	var second []uint64
	for {
		kind, addr, ok := stream.next()
		if !ok {
			break
		}
		second = append(second, applyOp(c, clock, kind, addr))
	}
	finalSecond := c.Snapshot()

	if len(first) != len(second) {
		t.Fatalf("replay length mismatch: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("op %d observed %x on first run, %x on replay", i, first[i], second[i])
		}
	}
	if !snapshotsEqual(finalFirst, finalSecond) {
		t.Fatal("final cache state differs between run and replay")
	}
}

func snapshotsEqual(a, b *Snapshot) bool {
	if a.geometry != b.geometry || a.nextID != b.nextID || a.stats != b.stats {
		return false
	}
	if !slices.Equal(a.meta, b.meta) || !slices.Equal(a.stamp, b.stamp) || len(a.pstate) != len(b.pstate) {
		return false
	}
	for i := range a.pstate {
		if a.pstate[i] != b.pstate[i] {
			return false
		}
	}
	return true
}

// tinyConfig is a small cache where 256 lines generate heavy conflict.
func tinyConfig(partition bool) Config {
	cfg := ScaledConfig(2, 16, 4)
	if partition {
		cfg.Partition = DefaultPartitionConfig()
	}
	return cfg
}

func TestSnapshotReplayDeterministic(t *testing.T) {
	rng := sim.NewRNG(11)
	for trial := 0; trial < 50; trial++ {
		data := make([]byte, 64+rng.Intn(192))
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		checkSnapshotReplay(t, tinyConfig(trial%2 == 1), data)
	}
}

// TestSnapshotRestoreIntoFreshCache is the machine-clone path: a snapshot
// taken on one cache restored into a newly constructed one with the same
// config must behave identically to the original.
func TestSnapshotRestoreIntoFreshCache(t *testing.T) {
	clock := sim.NewClock()
	cfg := tinyConfig(true)
	orig := New(cfg, clock)
	rng := sim.NewRNG(5)
	for i := 0; i < 500; i++ {
		applyOp(orig, clock, byte(rng.Intn(5)), uint64(rng.Intn(256))*64)
	}
	snap := orig.Snapshot()

	clone := New(cfg, clock)
	clone.Restore(snap)
	for i := 0; i < 200; i++ {
		addr := uint64(rng.Intn(256)) * 64
		// Drive both from one clock: advance manually to keep them aligned.
		ho, _ := orig.Read(addr)
		hc, _ := clone.Read(addr)
		if ho != hc {
			t.Fatalf("op %d (@%x): original hit=%v clone hit=%v", i, addr, ho, hc)
		}
		clock.Advance(50)
	}
	if orig.Stats() != clone.Stats() {
		t.Fatalf("stats diverged:\n%+v\n%+v", orig.Stats(), clone.Stats())
	}
}

func TestSnapshotGeometryMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("restoring a mismatched snapshot must panic")
		}
	}()
	clock := sim.NewClock()
	a := New(ScaledConfig(2, 16, 4), clock)
	b := New(ScaledConfig(2, 32, 4), clock)
	b.Restore(a.Snapshot())
}

// TestRebindKeepsShape: Rebind accepts any configuration of the cache's
// shape, and a cache rebound to cfg restores cfg's snapshots and then runs
// exactly like one built with cfg, latencies, DDIO and partition
// thresholds included. A rebind that would change the shape panics.
func TestRebindKeepsShape(t *testing.T) {
	to := tinyConfig(true)
	to.Partition = &PartitionConfig{Period: 4_000, THigh: 1_500, TLow: 500, MinIOWays: 1, MaxIOWays: 2}
	to.DDIO = false
	to.HitLatency, to.MissLatency = 30, 250

	refClock := sim.NewClock()
	ref := New(to, refClock)
	rng := sim.NewRNG(3)
	for i := 0; i < 500; i++ {
		applyOp(ref, refClock, byte(rng.Intn(5)), uint64(rng.Intn(256))*64)
	}
	clock := sim.NewClock()
	c := New(tinyConfig(true), clock)
	c.Rebind(to)
	c.Restore(ref.Snapshot())
	clock.Restore(refClock.Snapshot())
	for i := 0; i < 500; i++ {
		kind, addr := byte(rng.Intn(5)), uint64(rng.Intn(256))*64
		if want, got := applyOp(ref, refClock, kind, addr), applyOp(c, clock, kind, addr); got != want {
			t.Fatalf("op %d (kind %d @%x): rebound cache observed %x, built one %x", i, kind, addr, got, want)
		}
	}
	if !snapshotsEqual(ref.Snapshot(), c.Snapshot()) {
		t.Fatal("rebound cache's state diverged from the one built with its config")
	}

	for name, cfg := range map[string]Config{
		"slices":        ScaledConfig(4, 16, 4),
		"sets":          ScaledConfig(2, 32, 4),
		"ways":          ScaledConfig(2, 16, 8),
		"unpartitioned": tinyConfig(false),
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("a rebind across shapes must panic")
				}
			}()
			New(tinyConfig(true), sim.NewClock()).Rebind(cfg)
		})
	}
}

// FuzzSnapshotReplay lets the fuzzer hunt for op interleavings where
// restore-then-replay diverges (LRU stamps, partition quotas, occupancy
// integration are all in play).
func FuzzSnapshotReplay(f *testing.F) {
	f.Add([]byte{3, 0, 1, 1, 2, 2, 64, 3, 128, 4, 192, 0, 7, 2, 9})
	f.Add([]byte{10, 2, 2, 2, 3, 2, 4, 2, 5, 0, 6, 1, 7, 2, 8, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		checkSnapshotReplay(t, tinyConfig(len(data)%2 == 1), data)
	})
}

// TestSnapshotRestoreLineCountMismatchPanics: a snapshot whose line or
// set-counter count disagrees with the cache panics in Restore instead of
// restoring a prefix. Fits rejects it first, and an I/O quota outside the
// partition's bounds too.
func TestSnapshotRestoreLineCountMismatchPanics(t *testing.T) {
	c := New(tinyConfig(true), sim.NewClock())
	if err := c.Snapshot().Fits(c.Config()); err != nil {
		t.Fatalf("a snapshot must fit its own cache's config: %v", err)
	}
	quota := c.Snapshot()
	quota.pstate[0].Quota = c.Config().Partition.MaxIOWays + 1
	if quota.Fits(c.Config()) == nil {
		t.Error("Fits accepts an I/O quota past the partition's maximum")
	}
	for name, cut := range map[string]func(*Snapshot){
		"lines":  func(s *Snapshot) { s.meta = s.meta[:len(s.meta)-1] },
		"stamps": func(s *Snapshot) { s.stamp = s.stamp[:len(s.stamp)-1] },
		"pstate": func(s *Snapshot) { s.pstate = s.pstate[:len(s.pstate)-1] },
	} {
		t.Run(name, func(t *testing.T) {
			s := c.Snapshot()
			cut(s)
			if s.Fits(c.Config()) == nil {
				t.Error("Fits accepts a short snapshot")
			}
			defer func() {
				if recover() == nil {
					t.Fatal("restoring a short snapshot must panic")
				}
			}()
			c.Restore(s)
		})
	}
}

// corruptSnapshotGobs are wire forms no cache could have written.
var corruptSnapshotGobs = map[string]snapshotGob{
	"stamps short":    {Meta: []uint64{1 << 12, 2 << 12}, Stamps: []uint64{1}},
	"meta stray bit":  {Meta: []uint64{1<<12 | 1<<3 | lineValid}, Stamps: []uint64{1}},
	"meta stray bits": {Meta: []uint64{1<<12 | 0x38}, Stamps: []uint64{1}},
	"stamp too large": {Meta: []uint64{1 << 12}, Stamps: []uint64{maxStamp}},
}

// encodeSnapshotGob gob-encodes a wire form.
func encodeSnapshotGob(t testing.TB, w snapshotGob) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotGobDecodeRejectsCorruptLines: line words no cache could
// hold fail the decode, while a clean snapshot round-trips.
func TestSnapshotGobDecodeRejectsCorruptLines(t *testing.T) {
	clock := sim.NewClock()
	c := New(tinyConfig(true), clock)
	rng := sim.NewRNG(4)
	for i := 0; i < 300; i++ {
		applyOp(c, clock, byte(rng.Intn(5)), uint64(rng.Intn(256))*64)
	}
	snap := c.Snapshot()
	b, err := snap.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var dec Snapshot
	if err := dec.GobDecode(b); err != nil {
		t.Fatalf("clean snapshot rejected: %v", err)
	}
	if diff := diffSnapshots(snap, &dec); diff != "" {
		t.Fatalf("decoded snapshot differs: %s", diff)
	}
	for name, w := range corruptSnapshotGobs {
		var s Snapshot
		if err := s.GobDecode(encodeSnapshotGob(t, w)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// FuzzCacheSnapshotGobDecode: no input panics the decoder, and every
// input it accepts re-encodes to bytes that decode to the same snapshot
// and encode identically again.
func FuzzCacheSnapshotGobDecode(f *testing.F) {
	clock := sim.NewClock()
	for _, partition := range []bool{false, true} {
		c := New(tinyConfig(partition), clock)
		rng := sim.NewRNG(3)
		for i := 0; i < 300; i++ {
			applyOp(c, clock, byte(rng.Intn(5)), uint64(rng.Intn(256))*64)
		}
		b, err := c.Snapshot().GobEncode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, w := range corruptSnapshotGobs {
		f.Add(encodeSnapshotGob(f, w))
	}
	f.Add(encodeSnapshotGob(f, snapshotGob{Meta: []uint64{1<<12 | lineValid, 2 << 12}, Stamps: []uint64{1, 2}, Sets: []setState{{Quota: 1, HasIO: true}}}))
	f.Fuzz(func(t *testing.T, b []byte) {
		var s Snapshot
		if s.GobDecode(b) != nil {
			return
		}
		enc, err := s.GobEncode()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		var s2 Snapshot
		if err := s2.GobDecode(enc); err != nil {
			t.Fatalf("decode of re-encoded snapshot: %v", err)
		}
		if !snapshotsEqual(&s, &s2) {
			t.Fatal("snapshot changed across a gob round trip")
		}
		if enc2, err := s2.GobEncode(); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding not stable across a round trip (err %v)", err)
		}
	})
}
