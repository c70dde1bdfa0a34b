package experiments

import (
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// This file is the phase-split experiment API. The paper's attack has an
// expensive offline phase (eviction-set construction over every
// page-aligned cache set, latency calibration) and a cheap online phase
// (priming, probing, decoding). A monolithic Run(seed) would make the
// runner pay the offline cost for every trial of every experiment and for
// every sweep cell; the split lets it pay once:
//
//	Prepare(ctx) -> *Artifact   offline: build machines, eviction sets,
//	                            calibrations; snapshot everything
//	Measure(ctx, *Artifact)     online: clone machines from the
//	                            snapshots, measure, report
//
// An Artifact is pure data — testbed snapshots plus spy state plus
// eviction sets — so any number of trials can clone independent machines
// from it concurrently. The warm path stores artifacts in a
// content-addressed in-memory store keyed by the build's inputs (machine
// options and attacker strategy); the cold path rebuilds them for every
// trial. Both paths execute identical measurement code on identically
// restored machines, so warm and cold runs produce byte-identical reports
// — the correctness bar that forces snapshotting to be honest about RNG
// and clock positions. Every registry experiment and sweep has this
// shape; the ones without offline work get an empty Prepare
// (onlineExp).

// PrepareCtx carries the inputs of an offline phase. Seed is the
// offline-relevant seed: the runner derives it so that every trial of an
// experiment (and every sweep cell sharing an offline machine shape) sees
// the same value.
type PrepareCtx struct {
	Scale Scale
	Seed  int64
	// Store, when non-nil, deduplicates offline work across trials and
	// sweep cells (the warm path). A nil store rebuilds from scratch (the
	// cold path). Results are identical either way.
	Store *ArtifactStore
	// Holder, when non-nil, claims every Store entry this Prepare fetches
	// until Holder.Release (see ArtifactHolder). It must come from
	// Store.NewHolder. A nil holder claims nothing, and the entries it
	// fetches stay in memory for the store's lifetime.
	Holder *ArtifactHolder
}

// MeasureCtx carries the inputs of an online phase. Seed is the per-trial
// online seed; when it differs from the artifact's offline root seed the
// cloned machines' ambient random streams (timer jitter, background
// noise, driver reallocation) are re-derived from it, decorrelating
// trials the way repeated measurements on real hardware decorrelate. When
// the seeds are equal — trial 0, and the single-seed Run form — the
// streams continue from their exact post-offline positions, bit for bit.
type MeasureCtx struct {
	Scale Scale
	Seed  int64
	// Rigs, when non-nil, recycles cloned machines through a RigPool
	// instead of constructing one per rig per trial (see RigPool for the
	// geometry-keyed reuse contract). A nil lease builds every clone
	// fresh. Pooled and fresh clones are state-identical, so reports are
	// byte-identical either way — the same bar the warm/cold split meets.
	Rigs *RigLease
}

// PrepareFunc is an experiment's offline phase.
type PrepareFunc func(ctx PrepareCtx) (*Artifact, error)

// MeasureFunc is an experiment's online phase.
type MeasureFunc func(ctx MeasureCtx, art *Artifact) (Result, error)

// Artifact is the output of one Prepare call: every prepared machine the
// online phase will measure on, keyed by an experiment-chosen label, plus
// the offline root seed they were prepared under.
type Artifact struct {
	// Root is the offline seed the artifact was prepared with.
	Root int64
	// Rigs maps experiment-chosen labels ("rig", "blocks3", "rep1", ...)
	// to prepared machines.
	Rigs map[string]*RigArtifact
	// Failed records offline phases that collapsed, label -> reason, for
	// experiments where an attacker-side failure is itself an outcome
	// (chase_coarse_timer: the fine-timer attacker's preparation caving
	// in under a coarse timer is the measurement, not an error). The
	// simulation is deterministic, so the reasons are too — warm and cold
	// runs record identical bytes.
	Failed map[string]string
}

// RigArtifact is one prepared machine: the options to rebuild its shell,
// a snapshot of its post-offline state, the spy's calibration, and the
// discovered eviction sets. It is immutable; clones are cut from it.
type RigArtifact struct {
	Opts    testbed.Options
	Machine *testbed.Snapshot
	Spy     probe.SpyState
	Groups  []probe.EvictionSet
}

// NewArtifact starts an empty artifact rooted at the context's seed.
func (ctx PrepareCtx) NewArtifact() *Artifact {
	return &Artifact{
		Root:   ctx.Seed,
		Rigs:   make(map[string]*RigArtifact),
		Failed: make(map[string]string),
	}
}

// AddRig prepares (or fetches from the store) the machine described by
// opts, offline-prepared by an attacker using strat, and files it in the
// artifact under label. Callers with a scenario spec pass
// spec.Options(seed); plain callers pass probe.DefaultStrategy(). The
// store key is the build's whole input (see rigKey), so only genuinely
// interchangeable machines collide.
func (ctx PrepareCtx) AddRig(a *Artifact, label string, opts testbed.Options, strat probe.Strategy) error {
	build := func() (*RigArtifact, error) { return buildRigArtifact(opts, strat) }
	var ra *RigArtifact
	var err error
	if ctx.Store != nil {
		ra, err = ctx.Store.rig(rigKey(opts, strat), build, ctx.Holder)
	} else {
		ra, err = build()
	}
	if err != nil {
		return fmt.Errorf("prepare %s: %w", label, err)
	}
	if ra == nil {
		// Defensive: a (nil, nil) build result would otherwise surface as
		// a nil dereference far away in Measure.
		return fmt.Errorf("prepare %s: offline build returned no artifact", label)
	}
	a.Rigs[label] = ra
	return nil
}

// rigKey is the store's content address for one offline build: exactly
// the inputs buildRigArtifact reads. The offline fingerprint covers the
// machine's geometry; the seed and the online knobs follow because the
// offline phase runs under them too (the spy calibrates and builds its
// eviction sets under the timer and the background noise in force, which
// is how a timer-coarsening defense reaches the offline phase); the
// attacker strategy comes last, so a machine the amplified attacker
// prepared is never interchanged with one the fine-timer attacker did.
func rigKey(opts testbed.Options, strat probe.Strategy) string {
	key := fmt.Sprintf("%s|seed=%d|noise=%g|timer=%d",
		opts.OfflineFingerprint(), opts.Seed, opts.NoiseRate, opts.TimerNoise)
	if sfp := strat.Fingerprint(); sfp != "" {
		key += "|attacker=" + sfp
	}
	return key
}

// BuildError marks a deterministic offline-phase failure: the simulated
// attacker itself failed to prepare the machine (calibration collapse,
// no conflict groups, a converted panic). It exists so experiments that
// treat attacker collapse as a measured outcome (chase_coarse_timer) can
// distinguish it from infrastructure errors — artifact persistence, a
// full disk — which are environment-dependent, nondeterministic, and
// must fail the run instead of masquerading as a defense victory.
type BuildError struct{ Err error }

func (e *BuildError) Error() string { return e.Err.Error() }
func (e *BuildError) Unwrap() error { return e.Err }

// buildRigArtifact runs the offline phase for one machine: construct the
// testbed, map and calibrate the spy under the given strategy, build the
// aligned eviction sets, and snapshot the result. Panics are converted to
// errors HERE, below both the store and the direct path, for two reasons:
// a panic escaping into the store's sync.Once would poison the entry with
// (nil, nil) for every later trial, and converting at the same layer in
// both paths keeps warm and cold error bytes identical.
func buildRigArtifact(opts testbed.Options, strat probe.Strategy) (ra *RigArtifact, err error) {
	defer func() {
		if r := recover(); r != nil {
			ra, err = nil, &BuildError{Err: fmt.Errorf("panic: %v", r)}
		}
	}()
	tb, err := testbed.New(opts)
	if err != nil {
		return nil, &BuildError{Err: err}
	}
	spy, err := probe.NewSpyStrategy(tb, spyPages(opts), strat)
	if err != nil {
		return nil, &BuildError{Err: err}
	}
	groups, err := spy.BuildAlignedEvictionSets(opts.Cache.Ways)
	if err != nil {
		return nil, &BuildError{Err: err}
	}
	snap, err := tb.Snapshot()
	if err != nil {
		return nil, err
	}
	return &RigArtifact{
		Opts:    opts,
		Machine: snap,
		Spy:     spy.State(),
		Groups:  groups,
	}, nil
}

// rig clones an independent machine from the labeled rig artifact: a
// pooled rig when the context carries a lease with one of its shape,
// otherwise an empty shell; either way the rig adopts the artifact (see
// attackRig.adopt), so every trial runs one restore path. Safe to call
// concurrently for the same label. See MeasureCtx for the online-reseed
// rule.
func (a *Artifact) rig(label string, ctx MeasureCtx) (*attackRig, error) {
	ra, ok := a.Rigs[label]
	if !ok {
		return nil, fmt.Errorf("measure: artifact has no rig %q", label)
	}
	reseed := ctx.Seed != a.Root
	var online int64
	if reseed {
		online = sim.DeriveSeedParts(ctx.Seed, "online/", label)
	}
	r := ctx.Rigs.take(ra.Opts.Shape())
	if r == nil {
		tb, err := testbed.NewShell(ra.Opts)
		if err != nil {
			return nil, err
		}
		r = &attackRig{tb: tb, spy: new(probe.Spy)}
	}
	r.adopt(ra, reseed, online)
	ctx.Rigs.track(r)
	return r, nil
}

// ArtifactStore is the content-addressed cache of prepared machines a
// warm runner shares across trials and sweep cells. Concurrent requests
// for the same key build once; the losers block until the build finishes.
//
// Memory holds an entry only while a trial can use it. A fetch made
// through an ArtifactHolder claims the entry; when the last claiming
// holder releases, the entry leaves memory. The runner makes each
// experiment (and each search candidate) a holder until its last trial
// has been measured, and each sweep one holder until the sweep ends, so
// a store holds the machines of the units in flight, not of every unit
// it ever served. An entry fetched with no holder, and never claimed by
// one, stays for the store's lifetime. A store opened with
// NewDiskArtifactStore additionally persists every entry to disk,
// content-addressed by the same key, so a released entry is reloaded
// rather than rebuilt, and repeated CLI invocations and CI runs skip
// offline phases entirely. An in-memory store rebuilds a released
// entry; the runner never asks for one again within a job, because
// every experiment's machines are seeded from its own offline seed.
type ArtifactStore struct {
	mu       sync.Mutex
	entries  map[string]*storeEntry
	builds   int
	loads    int
	evicted  int
	dir      string // "" = in-memory only
	maxBytes int64  // 0 = unbounded; > 0 caps the disk directory
	evictMu  sync.Mutex
}

type storeEntry struct {
	once    sync.Once
	rig     *RigArtifact
	err     error
	holders int // guarded by ArtifactStore.mu
}

// ArtifactHolder is one claim on the store entries fetched through it
// (PrepareCtx.Holder): a runner unit, or a whole sweep. Safe for
// concurrent Prepares, as a unit's trials run on several workers.
type ArtifactHolder struct {
	s    *ArtifactStore
	held []heldEntry // guarded by s.mu
}

type heldEntry struct {
	key string
	e   *storeEntry
}

// NewHolder returns a holder with no claims; a nil store returns a nil
// holder, which claims nothing.
func (s *ArtifactStore) NewHolder() *ArtifactHolder {
	if s == nil {
		return nil
	}
	return &ArtifactHolder{s: s}
}

// claim records h as a holder of e, once per entry. Callers hold s.mu.
func (h *ArtifactHolder) claim(key string, e *storeEntry) {
	for _, he := range h.held {
		if he.e == e {
			return
		}
	}
	h.held = append(h.held, heldEntry{key, e})
	e.holders++
}

// Release drops every claim h holds. An entry whose last holder this was
// leaves memory: the next request for its key loads it from disk, or
// rebuilds it in an in-memory store. Release is idempotent and a no-op
// on a nil holder.
func (h *ArtifactHolder) Release() {
	if h == nil {
		return
	}
	s := h.s
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, he := range h.held {
		he.e.holders--
		if he.e.holders == 0 && s.entries[he.key] == he.e {
			delete(s.entries, he.key)
		}
	}
	h.held = nil
}

// NewArtifactStore returns an empty in-memory store.
func NewArtifactStore() *ArtifactStore {
	return &ArtifactStore{entries: make(map[string]*storeEntry)}
}

// NewDiskArtifactStore returns a store backed by dir: cache misses check
// the directory before building, and fresh builds are persisted there.
// Artifacts are keyed by the same content address as the in-memory map
// (rigKey: machine options and attacker strategy), hashed into a
// filename, so a disk entry is valid for exactly the machines the
// in-memory entry would be.
//
// Entries are published with durable.WriteFile (synced, then renamed
// into place), so a crash never leaves a torn entry under its final name.
//
// When maxBytes > 0, every persisted build is followed by an eviction
// pass that removes least-recently-used entries (mtime order; loadRig
// stamps the mtime on every hit) until the directory's *.rig.gob total
// fits the cap — the bound a shared long-running store needs, since its
// key space (every machine option set x attacker any client ever
// submits) grows without limit. Eviction is safe by construction: a
// reader that loses the race to an evicted file takes the ordinary miss
// path and rebuilds, exactly like the corrupt-entry healing; losing an
// entry only ever costs rebuild time. maxBytes == 0 leaves the directory
// unbounded.
func NewDiskArtifactStore(dir string, maxBytes int64) (*ArtifactStore, error) {
	if maxBytes < 0 {
		return nil, fmt.Errorf("artifact dir: negative size cap %d", maxBytes)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact dir: %w", err)
	}
	s := NewArtifactStore()
	s.dir = dir
	s.maxBytes = maxBytes
	return s, nil
}

// artifactFormatVersion is baked into every disk address. Bump it
// whenever the wire format changes — a snapshotGob field added or
// removed in any component, a new RigArtifact member — because gob
// zero-fills missing fields: a stale entry from an older binary would
// otherwise *decode successfully* into subtly wrong machine state
// instead of missing the cache and rebuilding. v2: probe.SpyState gained
// the measurement strategy and its calibration quality signals. v3: every
// snapshot persists its memory form — RNG generator states, cache line
// words and per-set counters, the allocator's free list and used bitset,
// the NIC ring and driver queue — and probe.SpyState lost its per-access
// overhead and its strategy's constant settings. v4: the allocator state
// is its lazy form — the undrawn prefix's moved positions, the drawn
// suffix and the shuffle stream — instead of a fully drawn free list.
const artifactFormatVersion = "packetchasing-artifact/v4"

// rigPath is the disk location for a key: the hex SHA-256 of the
// version-qualified content address (keys embed config dumps — too long
// and too hostile for filenames).
func (s *ArtifactStore) rigPath(key string) string {
	sum := sha256.Sum256([]byte(artifactFormatVersion + "|" + key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:])+".rig.gob")
}

// loadRig reads a persisted artifact. Any failure — missing file, corrupt
// or truncated gob, content that cannot stand in for key's build (see
// servesKey) — reports (nil, false): the caller rebuilds and overwrites,
// so a damaged cache heals instead of wedging every run.
func (s *ArtifactStore) loadRig(key string) (*RigArtifact, bool) {
	path := s.rigPath(key)
	f, err := os.Open(path)
	if err != nil {
		return nil, false
	}
	defer f.Close()
	var ra RigArtifact
	if err := gob.NewDecoder(f).Decode(&ra); err != nil || !ra.servesKey(key) {
		return nil, false
	}
	// Stamp the entry's mtime so LRU eviction sees the hit: mtime is the
	// eviction order, and nothing else moves it once the entry is
	// written. Failures (entry already evicted by a concurrent pass) are
	// harmless, the bytes are decoded.
	now := time.Now() //packetlint:allow disk-cache LRU recency stamp; never mixes into simulated time or report bytes
	_ = os.Chtimes(path, now, now)
	return &ra, true
}

// servesKey reports whether a decoded artifact is a build of key that a
// trial can adopt. Gob accepts any bytes of the right shape: a machine
// whose options were edited after the build decodes, then runs its trials
// under the wrong environment; a missing machine, spy or eviction-set
// line, a machine of another shape than its options (testbed.Snapshot.Fits)
// or a spy page or line outside its memory decodes, then panics or
// misbehaves in the first trial that adopts it.
func (ra *RigArtifact) servesKey(key string) bool {
	if rigKey(ra.Opts, ra.Spy.Strategy) != key || ra.Machine == nil || len(ra.Spy.Pages) == 0 ||
		ra.Machine.Fits(ra.Opts) != nil {
		return false
	}
	memBytes := ra.Opts.Shape().MemBytes
	for _, p := range ra.Spy.Pages {
		if uint64(p) >= memBytes {
			return false
		}
	}
	for _, g := range ra.Groups {
		if len(g.Lines) == 0 {
			return false
		}
		for _, a := range g.Lines {
			if a >= memBytes {
				return false
			}
		}
	}
	return true
}

// rig returns the artifact for key, building it at most once while the
// entry is resident (and, with a disk directory, at most once across
// processes). A non-nil h claims the entry before it is filled, so a
// concurrent release by another holder cannot drop it mid-build.
func (s *ArtifactStore) rig(key string, build func() (*RigArtifact, error), h *ArtifactHolder) (*RigArtifact, error) {
	if h != nil && h.s != s {
		panic("experiments: artifact holder from another store")
	}
	s.mu.Lock()
	e, ok := s.entries[key]
	if !ok {
		e = &storeEntry{}
		s.entries[key] = e
	}
	if h != nil {
		h.claim(key, e)
	}
	s.mu.Unlock()
	e.once.Do(func() {
		if s.dir != "" {
			if ra, ok := s.loadRig(key); ok {
				e.rig = ra
				s.mu.Lock()
				s.loads++
				s.mu.Unlock()
				return
			}
		}
		e.rig, e.err = build()
		if e.err == nil && s.dir != "" {
			// Streamed, not buffered: a paper-scale artifact is ~20 MB.
			err := durable.WriteFile(s.rigPath(key), func(w io.Writer) error {
				return gob.NewEncoder(w).Encode(e.rig)
			})
			if err != nil {
				e.rig, e.err = nil, fmt.Errorf("persist artifact: %w", err)
			} else {
				s.evict(s.rigPath(key))
			}
		}
		if e.err == nil {
			s.mu.Lock()
			s.builds++
			s.mu.Unlock()
		}
	})
	return e.rig, e.err
}

// Builds reports how many offline builds the store has performed — the
// observable half of the reuse contract (N trials, 1 build).
func (s *ArtifactStore) Builds() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.builds
}

// Resident reports how many entries the store holds in memory: loaded or
// built machines, builds in flight, and remembered build failures.
func (s *ArtifactStore) Resident() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// DiskLoads reports how many artifacts were served from the disk cache
// instead of being built.
func (s *ArtifactStore) DiskLoads() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loads
}

// Evictions reports how many disk entries the size cap has removed.
func (s *ArtifactStore) Evictions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted
}

// evict enforces the size cap after a persisted build: while the
// directory's *.rig.gob total exceeds maxBytes, the least-recently-used
// entry goes — except keep (the entry just written, which justified the
// pass and must survive it even under a cap smaller than one artifact).
// In-flight temp files are skipped: a concurrent durable.WriteFile owns
// them and they become entries only at rename. One pass runs at a time;
// scan errors are ignored (eviction is best-effort bookkeeping, never a
// correctness dependency — see NewDiskArtifactStore).
func (s *ArtifactStore) evict(keep string) {
	if s.maxBytes <= 0 {
		return
	}
	s.evictMu.Lock()
	defer s.evictMu.Unlock()

	type entry struct {
		path string
		size int64
		used time.Time
	}
	dirents, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	var ents []entry
	var total int64
	for _, de := range dirents {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".rig.gob") {
			continue
		}
		fi, err := de.Info()
		if err != nil {
			continue // raced with another evictor; already gone
		}
		path := filepath.Join(s.dir, de.Name())
		total += fi.Size()
		if path == keep {
			continue
		}
		ents = append(ents, entry{path: path, size: fi.Size(), used: fi.ModTime()})
	}
	if total <= s.maxBytes {
		return
	}
	sort.Slice(ents, func(i, j int) bool {
		if !ents[i].used.Equal(ents[j].used) {
			return ents[i].used.Before(ents[j].used)
		}
		return ents[i].path < ents[j].path // tie-break for a stable order
	})
	removed := 0
	for _, e := range ents {
		if total <= s.maxBytes {
			break
		}
		if os.Remove(e.path) == nil {
			total -= e.size
			removed++
		}
	}
	if removed > 0 {
		s.mu.Lock()
		s.evicted += removed
		s.mu.Unlock()
	}
}

// phasedRun composes a Prepare/Measure pair into the single-seed Run
// form with one seed for both phases. Per the MeasureCtx rule this path
// never reseeds online streams, so Run(seed) equals the runner's trial 0
// under OfflineSeed == seed. Kept, like Run itself, for the benchmark's
// tracer.
func phasedRun(p PrepareFunc, m MeasureFunc) func(Scale, int64) (Result, error) {
	return func(scale Scale, seed int64) (Result, error) {
		art, err := p(PrepareCtx{Scale: scale, Seed: seed})
		if err != nil {
			return Result{}, err
		}
		return m(MeasureCtx{Scale: scale, Seed: seed}, art)
	}
}
