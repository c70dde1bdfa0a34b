package experiments

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/defense"
	"repro/internal/probe"
	"repro/internal/scenario"
)

// driveState runs a fixed, deterministic interaction on a freshly cloned
// rig and serializes everything it touched: the restored machine state
// (clock, cache/NIC counters, calibration, eviction sets) and the observed
// behavior of a short probe-and-idle schedule, which exercises the cache
// contents, the timer RNG (Touch reads the noisy timer), the noise RNG and
// noise cursor (Idle syncs the world), and the driver. Two rigs with equal
// driveState are operationally indistinguishable — the equality the pool's
// adopt-in-place path is held to.
func driveState(r *attackRig) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "clock=%d cache=%+v nic=%+v hit=%d miss=%d cal=%v spread=%d k=%d",
		r.tb.Clock().Now(), r.tb.Cache().Stats(), r.tb.NIC().Stats(),
		r.spy.HitLatency(), r.spy.MissLatency(), r.spy.Calibrated(),
		r.spy.NoiseSpread(), r.spy.AmplificationFactor())
	for _, g := range r.groups {
		fmt.Fprintf(&sb, "|%d:%v:%v", g.ID, g.Lines, g.Members)
	}
	for gi, g := range r.groups {
		if gi == 4 {
			break
		}
		for _, a := range g.Lines {
			fmt.Fprintf(&sb, " %d", r.spy.Touch(a))
		}
		r.tb.Idle(50_000)
	}
	fmt.Fprintf(&sb, "|after clock=%d cache=%+v nic=%+v",
		r.tb.Clock().Now(), r.tb.Cache().Stats(), r.tb.NIC().Stats())
	return sb.String()
}

// poison leaves a rig the way an interrupted, partially executed Measure
// would: clock advanced, cache and NIC state churned, RNG streams moved,
// and — the part only buffer-copy bugs would miss — the eviction-set
// slices themselves scribbled over.
func poison(r *attackRig) {
	for i := 0; i < 500; i++ {
		r.spy.Touch(r.spy.PageBase(i%r.spy.Pages()) + uint64(i%64)*64)
	}
	r.tb.Idle(2_000_000)
	for gi := range r.groups {
		for li := range r.groups[gi].Lines {
			r.groups[gi].Lines[li] = 0xdeadbeef
		}
		r.groups[gi].Members = r.groups[gi].Members[:0]
	}
}

// dirtyReuseSpecs are the machine variants the reuse property is checked
// across: the undefended baseline plus one defense from each reuse-relevant
// class — timer coarsening (same geometry key as the baseline, so the pool
// WILL share rigs across the defense boundary and the snapshot must carry
// everything), adaptive partitioning and DDIO-off (different geometry keys,
// exercising multiple keys in one pool).
func dirtyReuseSpecs(scale Scale) map[string]scenario.Spec {
	base := baselineSpec(scale)
	return map[string]scenario.Spec{
		"baseline":     base,
		"timer-coarse": base.WithDefense(defense.TimerCoarsening{Jitter: 64}),
		"partition":    base.WithDefense(defense.AdaptivePartitioning{}),
		"no-ddio":      base.WithDefense(defense.DisableDDIO{}),
	}
}

// TestRigPoolDirtyReuseMatchesFresh: a pooled rig poisoned by a partial
// Measure must, on its next lease, behave identically to a fresh clone of
// the same artifact — across defenses, attacker strategies, and seeds.
// This is the pool's correctness contract: adoption overwrites every
// mutable field, so no trace of the previous trial (or its crash) leaks
// into the next one.
func TestRigPoolDirtyReuseMatchesFresh(t *testing.T) {
	strategies := map[string]probe.Strategy{
		"fine":      probe.DefaultStrategy(),
		"amplified": probe.AmplifiedStrategy(),
	}
	for specName, spec := range dirtyReuseSpecs(Demo) {
		for stratName, strat := range strategies {
			for _, seed := range []int64{3, 11} {
				name := fmt.Sprintf("%s/%s/seed%d", specName, stratName, seed)
				t.Run(name, func(t *testing.T) {
					ctx := PrepareCtx{Scale: Demo, Seed: seed}
					art := ctx.NewArtifact()
					if err := ctx.AddRig(art, "rig", spec.Options(seed), strat); err != nil {
						t.Fatal(err)
					}
					// Measure seed != root: the reseeded warm-trial path.
					m := MeasureCtx{Scale: Demo, Seed: seed + 1}
					fresh, err := art.rig("rig", m)
					if err != nil {
						t.Fatal(err)
					}
					want := driveState(fresh)

					lease := NewRigPool().Lease()
					mp := m
					mp.Rigs = lease
					victim, err := art.rig("rig", mp)
					if err != nil {
						t.Fatal(err)
					}
					poison(victim)
					lease.Release()
					reused, err := art.rig("rig", mp)
					if err != nil {
						t.Fatal(err)
					}
					if reused != victim {
						t.Fatal("pool did not hand back the poisoned rig")
					}
					if got := driveState(reused); got != want {
						t.Errorf("reused rig diverged from fresh clone:\nfresh:  %s\nreused: %s", want, got)
					}
					lease.Release()

					// The non-reseeded path (measure seed == root, the
					// single-shot Run identity) must survive reuse too.
					m0 := MeasureCtx{Scale: Demo, Seed: seed}
					f0, err := art.rig("rig", m0)
					if err != nil {
						t.Fatal(err)
					}
					want0 := driveState(f0)
					m0.Rigs = lease
					r0, err := art.rig("rig", m0)
					if err != nil {
						t.Fatal(err)
					}
					if got0 := driveState(r0); got0 != want0 {
						t.Errorf("non-reseeded reuse diverged:\nfresh:  %s\nreused: %s", want0, got0)
					}
					lease.Release()
				})
			}
		}
	}
}

// TestRigPoolCrossArtifactReuse: two artifacts with equal geometry but
// different seeds (distinct machines, same OfflineFingerprint) must share
// pooled rigs, and a rig that last served artifact A must serve artifact B
// exactly like B's own fresh clone. This is the cross-defense shell-reuse
// guarantee the fingerprint key provides.
func TestRigPoolCrossArtifactReuse(t *testing.T) {
	ctxA := PrepareCtx{Scale: Demo, Seed: 3}
	artA, err := PrepareFig10(ctxA)
	if err != nil {
		t.Fatal(err)
	}
	ctxB := PrepareCtx{Scale: Demo, Seed: 4}
	artB, err := PrepareFig10(ctxB)
	if err != nil {
		t.Fatal(err)
	}
	mB := MeasureCtx{Scale: Demo, Seed: 9}
	freshB, err := artB.rig("rig", mB)
	if err != nil {
		t.Fatal(err)
	}
	want := driveState(freshB)

	lease := NewRigPool().Lease()
	mA := MeasureCtx{Scale: Demo, Seed: 9, Rigs: lease}
	rigA, err := artA.rig("rig", mA)
	if err != nil {
		t.Fatal(err)
	}
	poison(rigA)
	lease.Release()
	mB.Rigs = lease
	reused, err := artB.rig("rig", mB)
	if err != nil {
		t.Fatal(err)
	}
	if reused != rigA {
		t.Fatal("equal-geometry artifacts must share pooled rigs")
	}
	if got := driveState(reused); got != want {
		t.Errorf("cross-artifact reuse diverged from B's fresh clone:\nfresh:  %s\nreused: %s", want, got)
	}
}

// TestRigPoolSharedConcurrentStress: one pool shared by many goroutines,
// each leasing, driving, poisoning, and releasing rigs of two geometries
// concurrently. Every drive must reproduce the single-threaded reference
// bytes, and the -race build must observe no data race — the pool is
// documented mutex-safe even though the runner shards it per worker.
func TestRigPoolSharedConcurrentStress(t *testing.T) {
	ctx := PrepareCtx{Scale: Demo, Seed: 5}
	art := ctx.NewArtifact()
	base := baselineSpec(Demo)
	if err := ctx.AddRig(art, "a", base.Options(5), probe.DefaultStrategy()); err != nil {
		t.Fatal(err)
	}
	if err := ctx.AddRig(art, "b", base.WithDefense(defense.DisableDDIO{}).Options(5), probe.DefaultStrategy()); err != nil {
		t.Fatal(err)
	}
	m := MeasureCtx{Scale: Demo, Seed: 6}
	want := map[string]string{}
	for _, label := range []string{"a", "b"} {
		r, err := art.rig(label, m)
		if err != nil {
			t.Fatal(err)
		}
		want[label] = driveState(r)
	}

	pool := NewRigPool()
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lease := pool.Lease()
			mc := m
			mc.Rigs = lease
			for i := 0; i < 6; i++ {
				label := []string{"a", "b"}[(w+i)%2]
				r, err := art.rig(label, mc)
				if err != nil {
					errs <- err
					return
				}
				if got := driveState(r); got != want[label] {
					errs <- fmt.Errorf("worker %d iter %d: rig %q diverged under shared pool", w, i, label)
					return
				}
				poison(r)
				lease.Release()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRigLeaseSteadyStateZeroAlloc pins the tentpole's headline number:
// once a worker's pool is warm, leasing a rig for a trial — take, adopt
// (restore + reseed + spy rebind + eviction-set copy), track, release —
// performs zero heap allocations. Guarded from -race builds, whose
// instrumentation allocates.
func TestRigLeaseSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
	ctx := PrepareCtx{Scale: Demo, Seed: 7}
	art, err := PrepareFig10(ctx)
	if err != nil {
		t.Fatal(err)
	}
	lease := NewRigPool().Lease()
	// Reseeded path: the steady state of every warm trial after the first.
	m := MeasureCtx{Scale: Demo, Seed: 8, Rigs: lease}
	for i := 0; i < 3; i++ { // grow every reused buffer to size
		if _, err := art.rig("rig", m); err != nil {
			t.Fatal(err)
		}
		lease.Release()
	}
	allocs := testing.AllocsPerRun(50, func() {
		r, err := art.rig("rig", m)
		if err != nil {
			t.Fatal(err)
		}
		_ = r
		lease.Release()
	})
	if allocs != 0 {
		t.Errorf("steady-state rig lease = %v allocs/trial, want 0", allocs)
	}

	// The non-reseeded lease (measure seed == root) must hold the same bar.
	m0 := MeasureCtx{Scale: Demo, Seed: 7, Rigs: lease}
	for i := 0; i < 3; i++ {
		if _, err := art.rig("rig", m0); err != nil {
			t.Fatal(err)
		}
		lease.Release()
	}
	allocs = testing.AllocsPerRun(50, func() {
		if _, err := art.rig("rig", m0); err != nil {
			t.Fatal(err)
		}
		lease.Release()
	})
	if allocs != 0 {
		t.Errorf("steady-state non-reseeded rig lease = %v allocs/trial, want 0", allocs)
	}
}

// TestRigPoolCapBounds: the idle cap spans keys. Released rigs of many
// geometries never leave more than maxIdle idle, the least recently
// released keys lose theirs first, and every eviction is counted.
func TestRigPoolCapBounds(t *testing.T) {
	pool := NewRigPool()
	idle := func() int {
		n := 0
		for _, rigs := range pool.idle {
			n += len(rigs)
		}
		return n
	}
	const keys, perKey = 10, 5
	for k := 0; k < keys; k++ {
		for i := 0; i < perKey; i++ {
			pool.put(&attackRig{poolKey: fmt.Sprint("k", k)})
			if n := idle(); n > maxIdle {
				t.Fatalf("key %d rig %d: %d idle rigs, cap %d", k, i, n, maxIdle)
			}
		}
	}
	if n := idle(); n != maxIdle {
		t.Fatalf("idle rigs = %d, want cap %d", n, maxIdle)
	}
	// 50 released, 32 kept: the oldest keys k0..k2 are gone and k3 keeps 2.
	for k, want := range []int{0, 0, 0, 2, 5, 5, 5, 5, 5, 5} {
		if got := len(pool.idle[fmt.Sprint("k", k)]); got != want {
			t.Errorf("key k%d holds %d idle rigs, want %d", k, got, want)
		}
	}
	if got, want := pool.Stats(), (RigPoolStats{Dropped: keys*perKey - maxIdle}); got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}
	// A lease refreshes nothing, but a release does: k3 becomes the most
	// recently released key, so k4 is next to lose a rig.
	if pool.take("k3") == nil || pool.take("k0") != nil {
		t.Fatal("take served the wrong keys")
	}
	pool.put(&attackRig{poolKey: "k3"})
	pool.put(&attackRig{poolKey: "k3"})
	if got := len(pool.idle["k4"]); got != 4 {
		t.Errorf("k4 holds %d idle rigs after the refresh, want 4", got)
	}
	if got, want := pool.Stats(), (RigPoolStats{Adopted: 1, Fresh: 1, Dropped: keys*perKey - maxIdle + 1}); got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}
	// Untracked rigs (poolKey unset) are never pooled.
	pool.put(&attackRig{})
	if n := len(pool.idle[""]); n != 0 {
		t.Fatalf("rig with empty key pooled: %d", n)
	}
}

// randomizedOutcome runs a chase on a ring-randomizing rig — every
// delivered frame moves its buffer to a freshly allocated page and frees
// the old one — and serializes the result together with the allocator
// state the trial left behind. Two rigs with equal outcomes took the same
// pages in the same order.
func randomizedOutcome(r *attackRig) (string, error) {
	c := chaseAccuracy(r, nil, chaseFrames(r))
	al := r.tb.Alloc()
	if al.SharesFreeList() {
		return "", fmt.Errorf("a ring-randomizing trial left the snapshot's free list unwritten")
	}
	st, err := al.Snapshot().GobEncode()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("acc=%v sync=%v cal=%v nic=%+v free=%d alloc=%x",
		c.acc, c.outOfSync, c.calOK, r.tb.NIC().Stats(), al.FreePages(), sha256.Sum256(st)), nil
}

// TestRigCopyOnWriteSnapshotIntact: clones share their snapshot's page
// free list until they write it, so concurrent ring-randomizing trials —
// pooled and fresh, reseeded and trial-0 — must each copy before they
// allocate. The artifact's bytes, free-list order included, are the same
// after the trials as before, and every pooled clone reproduces the fresh
// clone of its seed. Under -race a write into the shared list is a data
// race between the trials.
func TestRigCopyOnWriteSnapshotIntact(t *testing.T) {
	ctx := PrepareCtx{Scale: Demo, Seed: 5}
	art := ctx.NewArtifact()
	spec := baselineSpec(Demo).WithDefense(defense.RingRandomization{})
	if err := ctx.AddRig(art, "rig", spec.Options(ctx.Seed), probe.DefaultStrategy()); err != nil {
		t.Fatal(err)
	}
	before := sha256.Sum256(gobRig(t, art.Rigs["rig"]))

	// Trial 0 restores without reseeding; the others reseed.
	seeds := []int64{art.Root, art.Root + 1, art.Root + 2}
	want := map[int64]string{}
	for _, seed := range seeds {
		r, err := art.rig("rig", MeasureCtx{Scale: Demo, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if want[seed], err = randomizedOutcome(r); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	const workers = 4 // even workers pool their rigs, odd ones clone fresh
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var lease *RigLease
			if w%2 == 0 {
				lease = NewRigPool().Lease()
			}
			for pass := 0; pass < 2; pass++ {
				for i := range seeds {
					seed := seeds[(i+w)%len(seeds)]
					r, err := art.rig("rig", MeasureCtx{Scale: Demo, Seed: seed, Rigs: lease})
					if err != nil {
						errs <- err
						return
					}
					got, err := randomizedOutcome(r)
					if err != nil {
						errs <- err
						return
					}
					if got != want[seed] {
						errs <- fmt.Errorf("worker %d pass %d seed %d: %s, want %s", w, pass, seed, got, want[seed])
						return
					}
					lease.Release()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if after := sha256.Sum256(gobRig(t, art.Rigs["rig"])); after != before {
		t.Errorf("rig artifact changed under concurrent randomizing trials: sha256 %x, was %x", after, before)
	}
}

// TestRigCloneFreeListMemory is the deterministic memory gate on clones:
// a leased rig that never allocates a page shares the snapshot's 1 MiB
// free list through its whole trial, an idle pooled rig holds no free
// list at all, and a fresh demo clone allocates under 1 MiB — less than
// the free list it would otherwise copy.
func TestRigCloneFreeListMemory(t *testing.T) {
	ctx := PrepareCtx{Scale: Demo, Seed: 1}
	art, err := PrepareFig10(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewRigPool()
	lease := pool.Lease()
	for _, seed := range []int64{art.Root, art.Root + 1} {
		m := MeasureCtx{Scale: Demo, Seed: seed, Rigs: lease}
		for i := 0; i < 2; i++ { // a fresh shell, then the pooled rig
			r, err := art.rig("rig", m)
			if err != nil {
				t.Fatal(err)
			}
			driveState(r)
			if !r.tb.Alloc().SharesFreeList() {
				t.Errorf("seed %d lease %d: a non-randomizing trial holds a copy of the free list", seed, i)
			}
			lease.Release()
		}
	}
	if got := pool.Stats(); got.Adopted != 3 || got.Fresh != 1 {
		t.Fatalf("pool stats %+v, want 3 adopted and 1 fresh", got)
	}
	for key, rigs := range pool.idle {
		for _, r := range rigs {
			if n := r.tb.Alloc().FreePages(); n != 0 || r.tb.Alloc().SharesFreeList() {
				t.Errorf("idle rig of %s holds a free list of %d pages", key, n)
			}
		}
	}

	if raceEnabled {
		return // allocation accounting is unreliable under the race detector
	}
	const clones = 8
	m := MeasureCtx{Scale: Demo, Seed: art.Root + 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < clones; i++ {
		if _, err := art.rig("rig", m); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / clones; per >= 1<<20 {
		t.Errorf("fresh demo clone allocated %d bytes, want < 1 MiB", per)
	}
}
