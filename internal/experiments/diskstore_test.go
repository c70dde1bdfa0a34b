package experiments

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/netmodel"
	"repro/internal/nic"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// measureJSON runs fig10's online phase on the artifact and serializes
// the result — the observable the disk round-trip must preserve exactly.
func measureJSON(t *testing.T, art *Artifact, seed int64) []byte {
	t.Helper()
	res, err := MeasureFig10(MeasureCtx{Scale: Demo, Seed: seed}, art)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDiskStoreRoundTrip: an artifact persisted by one store and loaded
// by a fresh store (a new process, as far as the cache is concerned)
// must skip the offline build and measure byte-identically to the
// original — the disk format must capture machine snapshots, spy state,
// and eviction sets exactly.
func TestDiskStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()

	s1, err := NewDiskArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	art1, err := PrepareFig10(PrepareCtx{Scale: Demo, Seed: 7, Store: s1})
	if err != nil {
		t.Fatal(err)
	}
	if s1.Builds() != 1 || s1.DiskLoads() != 0 {
		t.Fatalf("first run: builds=%d loads=%d, want 1/0", s1.Builds(), s1.DiskLoads())
	}
	want := measureJSON(t, art1, 7)

	// A second store over the same directory models a fresh invocation.
	s2, err := NewDiskArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	art2, err := PrepareFig10(PrepareCtx{Scale: Demo, Seed: 7, Store: s2})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Builds() != 0 || s2.DiskLoads() != 1 {
		t.Fatalf("second run: builds=%d loads=%d, want 0/1 (must load from disk)", s2.Builds(), s2.DiskLoads())
	}
	if got := measureJSON(t, art2, 7); !bytes.Equal(want, got) {
		t.Errorf("disk-loaded artifact measured differently:\n want %s\n got  %s", want, got)
	}

	// Different keys must not collide on disk: a different offline seed
	// builds fresh.
	if _, err := PrepareFig10(PrepareCtx{Scale: Demo, Seed: 8, Store: s2}); err != nil {
		t.Fatal(err)
	}
	if s2.Builds() != 1 {
		t.Fatalf("different seed served from disk: builds=%d, want 1", s2.Builds())
	}
}

// TestDiskStoreHealsCorruptEntries: a truncated or garbage cache file
// must be rebuilt (and overwritten), not wedge every later run.
func TestDiskStoreHealsCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewDiskArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PrepareFig10(PrepareCtx{Scale: Demo, Seed: 3, Store: s1}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("expected one cache file, got %d (%v)", len(ents), err)
	}
	path := filepath.Join(dir, ents[0].Name())
	if err := os.WriteFile(path, []byte("not a gob"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := NewDiskArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	art, err := PrepareFig10(PrepareCtx{Scale: Demo, Seed: 3, Store: s2})
	if err != nil {
		t.Fatalf("corrupt entry must rebuild, got %v", err)
	}
	if s2.Builds() != 1 || s2.DiskLoads() != 0 {
		t.Fatalf("corrupt entry: builds=%d loads=%d, want 1/0", s2.Builds(), s2.DiskLoads())
	}
	if art.Rigs["rig"] == nil {
		t.Fatal("rebuild produced no artifact")
	}
	// The healed entry is decodable again.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var ra RigArtifact
	if err := gob.NewDecoder(f).Decode(&ra); err != nil {
		t.Errorf("healed cache file still corrupt: %v", err)
	}
}

// rawGob holds a GobEncoder's payload undecoded, so a test can rewrite one
// nested component of a persisted artifact and leave the rest intact.
type rawGob []byte

func (r *rawGob) GobDecode(b []byte) error  { *r = append(rawGob(nil), b...); return nil }
func (r rawGob) GobEncode() ([]byte, error) { return r, nil }

// The wire shapes of RigArtifact, testbed.Snapshot, mem.AllocatorState
// and nic.Snapshot (gob matches fields by name, not types by name).
type (
	rigWire struct {
		Opts    testbed.Options
		Machine rawGob
		Spy     probe.SpyState
		Groups  []probe.EvictionSet
	}
	machineWire struct {
		Clock                                            uint64
		Cache, Alloc, NIC                                rawGob
		NoiseRNG, TimerRNG                               sim.RNGState
		NoiseRate                                        float64
		TimerNoise, NoisePeriod, NoiseNextAt, NoiseSpace uint64
	}
	allocWire struct {
		Free, Used []uint64
		NumPages   uint64
	}
	nicWire struct {
		Ring []struct {
			Page   uint64
			Offset uint32
		}
		Head  int
		Queue []struct {
			Frame   netmodel.Frame
			DescIdx int
			Buf     uint64
			DueAt   uint64
		}
		SKB      []uint64
		SKBIdx   int
		DescRing uint64
		SincePct int
		Stats    nic.Stats
		RNG      *sim.RNGState
	}
)

// gobRewrite decodes src into v, lets edit change it, and re-encodes it.
func gobRewrite(t *testing.T, src []byte, v any, edit func()) []byte {
	t.Helper()
	if err := gob.NewDecoder(bytes.NewReader(src)).Decode(v); err != nil {
		t.Fatal(err)
	}
	edit()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDiskStoreHealsOutOfRangeFrame: an entry that is valid gob but names
// a physical frame past the end of memory is a cache miss: the decoder
// must reject it rather than panic inside the store's once, which would
// poison the entry for the whole run. The store rebuilds it, and the
// rebuilt artifact measures like a clean one.
func TestDiskStoreHealsOutOfRangeFrame(t *testing.T) {
	checkDiskStoreHeals(t, "an out-of-range used frame", func(machine *machineWire) {
		var alloc allocWire
		machine.Alloc = gobRewrite(t, machine.Alloc, &alloc, func() {
			alloc.Used = append(alloc.Used, alloc.NumPages)
		})
	})
}

// TestDiskStoreHealsOutOfRangeNICHead: an entry whose NIC ring cursor
// points past the ring decodes as gob but would panic on the first
// Receive of every trial that adopts it. It must be rejected and rebuilt
// like any other corrupt entry.
func TestDiskStoreHealsOutOfRangeNICHead(t *testing.T) {
	checkDiskStoreHeals(t, "an out-of-range NIC head", func(machine *machineWire) {
		var n nicWire
		machine.NIC = gobRewrite(t, machine.NIC, &n, func() {
			n.Head = len(n.Ring)
		})
	})
}

// checkDiskStoreHeals persists a fig10 demo rig, lets corrupt rewrite its
// machine snapshot, and checks that the entry no longer decodes, that a
// fresh store rebuilds it, and that the rebuilt artifact measures like
// the clean one.
func checkDiskStoreHeals(t *testing.T, what string, corrupt func(*machineWire)) {
	t.Helper()
	dir := t.TempDir()
	s1, err := NewDiskArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	art, err := PrepareFig10(PrepareCtx{Scale: Demo, Seed: 3, Store: s1})
	if err != nil {
		t.Fatal(err)
	}
	want := measureJSON(t, art, 3)
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("expected one cache file, got %d (%v)", len(ents), err)
	}
	path := filepath.Join(dir, ents[0].Name())
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rig rigWire
	var machine machineWire
	b = gobRewrite(t, b, &rig, func() {
		rig.Machine = gobRewrite(t, rig.Machine, &machine, func() { corrupt(&machine) })
	})
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	var ra RigArtifact
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&ra); err == nil {
		t.Fatalf("%s decoded without error", what)
	}

	s2, err := NewDiskArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	art2, err := PrepareFig10(PrepareCtx{Scale: Demo, Seed: 3, Store: s2})
	if err != nil {
		t.Fatalf("corrupt entry must rebuild, got %v", err)
	}
	if s2.Builds() != 1 || s2.DiskLoads() != 0 {
		t.Fatalf("corrupt entry: builds=%d loads=%d, want 1/0", s2.Builds(), s2.DiskLoads())
	}
	if got := measureJSON(t, art2, 3); !bytes.Equal(got, want) {
		t.Errorf("rebuilt artifact measured differently:\n want %s\n got  %s", want, got)
	}
}

// rigFileSize returns the size one persisted fig10 demo rig occupies, so
// cap tests can be phrased in "N entries" instead of guessed byte counts.
func rigFileSize(t *testing.T) int64 {
	t.Helper()
	dir := t.TempDir()
	s, err := NewDiskArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PrepareFig10(PrepareCtx{Scale: Demo, Seed: 1, Store: s}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("expected one cache file, got %d (%v)", len(ents), err)
	}
	fi, err := ents[0].Info()
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// countRigFiles counts persisted entries in a store directory.
func countRigFiles(t *testing.T, dir string) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.rig.gob"))
	if err != nil {
		t.Fatal(err)
	}
	return len(matches)
}

// TestDiskStoreEvictsLRU: with a cap sized for two entries, building a
// third evicts the least-recently-used one — and "used" means used: an
// entry kept warm by loads survives over a colder, older-accessed one.
func TestDiskStoreEvictsLRU(t *testing.T) {
	one := rigFileSize(t)
	dir := t.TempDir()
	s, err := NewDiskArtifactStoreCapped(dir, 2*one+one/2)
	if err != nil {
		t.Fatal(err)
	}
	prep := func(st *ArtifactStore, seed int64) {
		t.Helper()
		if _, err := PrepareFig10(PrepareCtx{Scale: Demo, Seed: seed, Store: st}); err != nil {
			t.Fatal(err)
		}
	}
	prep(s, 1)
	time.Sleep(10 * time.Millisecond) // distinct timestamps for the LRU order
	prep(s, 2)
	time.Sleep(10 * time.Millisecond)

	// Touch seed 1 from a fresh store (a disk load), making seed 2 the LRU
	// entry despite being written later.
	s2, err := NewDiskArtifactStoreCapped(dir, 2*one+one/2)
	if err != nil {
		t.Fatal(err)
	}
	prep(s2, 1)
	if s2.DiskLoads() != 1 {
		t.Fatalf("touch load missed: loads=%d", s2.DiskLoads())
	}
	time.Sleep(10 * time.Millisecond)

	prep(s2, 3) // third entry: must evict exactly the LRU one (seed 2)
	if got := countRigFiles(t, dir); got != 2 {
		t.Fatalf("after eviction: %d entries on disk, want 2", got)
	}
	if s2.Evictions() != 1 {
		t.Fatalf("evictions=%d, want 1", s2.Evictions())
	}
	// Seeds 1 and 3 must still load from disk; seed 2 must rebuild.
	s3, err := NewDiskArtifactStoreCapped(dir, 2*one+one/2)
	if err != nil {
		t.Fatal(err)
	}
	prep(s3, 1)
	prep(s3, 3)
	if s3.Builds() != 0 || s3.DiskLoads() != 2 {
		t.Fatalf("survivors wrong: builds=%d loads=%d, want 0/2 (LRU entry evicted, not MRU)", s3.Builds(), s3.DiskLoads())
	}
	prep(s3, 2)
	if s3.Builds() != 1 {
		t.Fatalf("evicted entry served from disk: builds=%d, want 1", s3.Builds())
	}
}

// TestDiskStoreEvictionKeepsFreshBuild: a cap smaller than a single
// artifact must not evict the entry whose write triggered the pass — the
// build that just happened is by definition the most recently used.
func TestDiskStoreEvictionKeepsFreshBuild(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskArtifactStoreCapped(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PrepareFig10(PrepareCtx{Scale: Demo, Seed: 1, Store: s}); err != nil {
		t.Fatal(err)
	}
	if got := countRigFiles(t, dir); got != 1 {
		t.Fatalf("fresh build evicted by its own pass: %d entries, want 1", got)
	}
}

// TestDiskStoreEvictionNeverBreaksLoads: the in-flight safety property.
// Stores under a 1-byte cap evict aggressively on every build while
// concurrent single-flight loads race them across fresh store instances;
// every Prepare must still succeed with a usable artifact — an evicted
// or half-raced file degrades to a rebuild, never to an error.
func TestDiskStoreEvictionNeverBreaksLoads(t *testing.T) {
	dir := t.TempDir()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for worker := 0; worker < 4; worker++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				// Each store instance models a separate client invocation
				// sharing the directory; seeds overlap so loads and evicting
				// builds hit the same entries.
				s, err := NewDiskArtifactStoreCapped(dir, 1)
				if err != nil {
					errs <- err
					return
				}
				for seed := int64(1); seed <= 2; seed++ {
					art, err := PrepareFig10(PrepareCtx{Scale: Demo, Seed: seed, Store: s})
					if err != nil {
						errs <- fmt.Errorf("seed %d: %w", seed, err)
						return
					}
					if art.Rigs["rig"] == nil {
						errs <- fmt.Errorf("seed %d: artifact missing rig", seed)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDiskStoreCapPreservesHealing: the size cap must not change the
// corrupt-entry contract — garbage entries still rebuild and heal under
// an active cap.
func TestDiskStoreCapPreservesHealing(t *testing.T) {
	one := rigFileSize(t)
	dir := t.TempDir()
	s, err := NewDiskArtifactStoreCapped(dir, 4*one)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PrepareFig10(PrepareCtx{Scale: Demo, Seed: 3, Store: s}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, func() string {
		ents, _ := os.ReadDir(dir)
		return ents[0].Name()
	}())
	if err := os.WriteFile(path, []byte("not a gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := NewDiskArtifactStoreCapped(dir, 4*one)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PrepareFig10(PrepareCtx{Scale: Demo, Seed: 3, Store: s2}); err != nil {
		t.Fatalf("corrupt entry under cap must rebuild, got %v", err)
	}
	if s2.Builds() != 1 {
		t.Fatalf("healing build count wrong: %d", s2.Builds())
	}
}

// TestDiskStoreDefenseVariantsDistinctFiles: two artifacts differing only
// in a timer-coarsening defense (TimerNoise) must land in distinct disk
// entries.
func TestDiskStoreDefenseVariantsDistinctFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := PrepareCtx{Scale: Demo, Seed: 5, Store: s}
	opts := machineOptions(Demo, 5)
	coarse := opts
	coarse.TimerNoise = 64
	art := ctx.NewArtifact()
	if err := ctx.AddRig(art, "plain", opts, probe.DefaultStrategy()); err != nil {
		t.Fatal(err)
	}
	if err := ctx.AddRig(art, "coarse", coarse, probe.DefaultStrategy()); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("expected 2 distinct cache files for defense variants, got %d", len(ents))
	}
}
