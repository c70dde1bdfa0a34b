package experiments

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/defense"
	"repro/internal/probe"
	"repro/internal/scenario"
	"repro/internal/testbed"
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

// configOutcome is driveState followed by a chase over live frames, which
// also exercises what adoption rebinds rather than restores: the cache's
// latencies, DDIO and partition quotas, and the driver's ring
// randomization. It records the configuration the rig ran under, too.
func configOutcome(r *attackRig) string {
	cc, nc := r.tb.Cache().Config(), r.tb.NIC().Config()
	part := "none"
	if cc.Partition != nil {
		part = fmt.Sprintf("%+v", *cc.Partition)
	}
	cc.Partition = nil
	state := driveState(r)
	c := chaseAccuracy(r, nil, chaseFrames(r))
	return fmt.Sprintf("cache=%+v part=%s nic=%+v %s|chase acc=%v sync=%v cal=%v cache=%+v nic=%+v",
		cc, part, nc, state, c.acc, c.outOfSync, c.calOK, r.tb.Cache().Stats(), r.tb.NIC().Stats())
}

// partitionWays is adaptive partitioning with an I/O-way quota of at most
// ways, the partition axis of frontier search.
func partitionWays(ways int) defense.Defense {
	cfg := *cache.DefaultPartitionConfig()
	cfg.MaxIOWays = ways
	return defense.AdaptivePartitioning{Config: &cfg}
}

// dirtyReuseSpecs are the machine variants the reuse property is checked
// across: the undefended baseline plus each defense class. All but the
// partitioned two share the baseline's shape, and the partitioned two
// share theirs, so the pool shares rigs across the defense boundary and
// adoption must rebind the configuration (timer coarsening, DDIO off,
// ring randomization, partition quotas) as well as restore the state.
func dirtyReuseSpecs(scale Scale) map[string]scenario.Spec {
	base := baselineSpec(scale)
	return map[string]scenario.Spec{
		"baseline":      base,
		"timer-coarse":  base.WithDefense(defense.TimerCoarsening{Jitter: 64}),
		"no-ddio":       base.WithDefense(defense.DisableDDIO{}),
		"ring-full":     base.WithDefense(defense.RingRandomization{}),
		"ring-periodic": base.WithDefense(defense.RingRandomization{Interval: 100}),
		"partition":     base.WithDefense(defense.AdaptivePartitioning{}),
		"partition-p1":  base.WithDefense(partitionWays(1)),
	}
}

// dirtyReuseDonors names, for each of dirtyReuseSpecs, another variant of
// its shape: the poisoned rig a spec's trial adopts last served the donor,
// prepared by the other attacker strategy.
var dirtyReuseDonors = map[string]string{
	"baseline":      "ring-periodic",
	"timer-coarse":  "baseline",
	"no-ddio":       "timer-coarse",
	"ring-full":     "no-ddio",
	"ring-periodic": "ring-full",
	"partition":     "partition-p1",
	"partition-p1":  "partition",
}

// TestRigPoolDirtyReuseMatchesFresh: a pooled rig poisoned by a partial
// Measure of another machine of its shape — another defense, another
// attacker strategy — must, on its next lease, behave identically to a
// fresh clone of the leased artifact, across defenses, strategies, and
// seeds. This is the pool's correctness contract: adoption rebinds the
// configuration and overwrites every mutable field, so no trace of the
// previous trial (or its crash) leaks into the next one.
func TestRigPoolDirtyReuseMatchesFresh(t *testing.T) {
	strategies := map[string]probe.Strategy{
		"fine":      probe.DefaultStrategy(),
		"amplified": probe.AmplifiedStrategy(),
	}
	other := map[string]string{"fine": "amplified", "amplified": "fine"}
	specs := dirtyReuseSpecs(Demo)
	store := NewArtifactStore() // donors are other subtests' machines
	for specName, spec := range specs {
		for stratName, strat := range strategies {
			for _, seed := range []int64{3, 11} {
				name := fmt.Sprintf("%s/%s/seed%d", specName, stratName, seed)
				t.Run(name, func(t *testing.T) {
					ctx := PrepareCtx{Scale: Demo, Seed: seed, Store: store}
					art := ctx.NewArtifact()
					if err := ctx.AddRig(art, "rig", spec.Options(seed), strat); err != nil {
						t.Fatal(err)
					}
					donor := dirtyReuseDonors[specName]
					if err := ctx.AddRig(art, "donor", specs[donor].Options(seed), strategies[other[stratName]]); err != nil {
						t.Fatal(err)
					}
					// Measure seed != root: the reseeded warm-trial path.
					m := MeasureCtx{Scale: Demo, Seed: seed + 1}
					fresh, err := art.rig("rig", m)
					if err != nil {
						t.Fatal(err)
					}
					want := configOutcome(fresh)

					lease := NewRigPool().Lease()
					mp := m
					mp.Rigs = lease
					victim, err := art.rig("donor", mp)
					if err != nil {
						t.Fatal(err)
					}
					configOutcome(victim)
					poison(victim)
					lease.Release()
					reused, err := art.rig("rig", mp)
					if err != nil {
						t.Fatal(err)
					}
					if reused != victim {
						t.Fatalf("pool did not hand the %s rig back for %s", donor, specName)
					}
					if got := configOutcome(reused); got != want {
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
					want0 := configOutcome(f0)
					m0.Rigs = lease
					r0, err := art.rig("rig", m0)
					if err != nil {
						t.Fatal(err)
					}
					if got0 := configOutcome(r0); got0 != want0 {
						t.Errorf("non-reseeded reuse diverged:\nfresh:  %s\nreused: %s", want0, got0)
					}
					lease.Release()
				})
			}
		}
	}
}

// TestRigPoolCrossConfigReuse: one pooled rig per shape serves, in turn,
// artifacts of that shape under each configuration frontier search moves
// between: partition quotas p1 → p3 → p2, DDIO on and off, ring
// randomization off, full and periodic, timer jitter, stacked defenses,
// and the fine and amplified attackers. Each lease must reproduce the
// fresh clone of its artifact, and only the first lease of each shape
// clones.
func TestRigPoolCrossConfigReuse(t *testing.T) {
	fine, amplified := probe.DefaultStrategy(), probe.AmplifiedStrategy()
	base := baselineSpec(Demo)
	steps := []struct {
		label string
		spec  scenario.Spec
		strat probe.Strategy
	}{
		{"baseline", base, fine},
		{"p1", base.WithDefense(partitionWays(1)), fine},
		{"no-ddio", base.WithDefense(defense.DisableDDIO{}), fine},
		{"p3", base.WithDefense(partitionWays(3)), fine},
		{"ring-full", base.WithDefense(defense.RingRandomization{}), fine},
		{"p2", base.WithDefense(partitionWays(2)), amplified},
		{"ring-periodic", base.WithDefense(defense.RingRandomization{Interval: 100}), fine},
		{"p3-periodic-t64", base.WithDefense(defense.NewStack(partitionWays(3),
			defense.RingRandomization{Interval: 100}, defense.TimerCoarsening{Jitter: 64})), fine},
		{"t64", base.WithDefense(defense.TimerCoarsening{Jitter: 64}), amplified},
		{"baseline-amplified", base, amplified},
		{"p1-again", base.WithDefense(partitionWays(1)), fine},
		{"baseline-again", base, fine},
	}
	ctx := PrepareCtx{Scale: Demo, Seed: 5}
	art := ctx.NewArtifact()
	for _, st := range steps {
		if err := ctx.AddRig(art, st.label, st.spec.Options(ctx.Seed), st.strat); err != nil {
			t.Fatal(err)
		}
	}
	pool := NewRigPool()
	lease := pool.Lease()
	byShape := map[testbed.Shape]*attackRig{}
	for i, st := range steps {
		// Alternate the trial-0 restore and the reseeded one.
		seed := art.Root + int64(i%2)
		fresh, err := art.rig(st.label, MeasureCtx{Scale: Demo, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		want := configOutcome(fresh)
		r, err := art.rig(st.label, MeasureCtx{Scale: Demo, Seed: seed, Rigs: lease})
		if err != nil {
			t.Fatal(err)
		}
		shape := art.Rigs[st.label].Opts.Shape()
		if prev, ok := byShape[shape]; ok && r != prev {
			t.Fatalf("step %s: the pool cloned a second rig of shape %+v", st.label, shape)
		}
		byShape[shape] = r
		if got := configOutcome(r); got != want {
			t.Errorf("step %s: pooled rig diverged from its fresh clone:\nfresh:  %s\npooled: %s", st.label, want, got)
		}
		poison(r)
		lease.Release()
	}
	if got, want := pool.Stats(), (RigPoolStats{Adopted: len(steps) - 2, Fresh: 2}); got != want {
		t.Errorf("pool stats %+v, want %+v", got, want)
	}
}

// TestRigPoolCrossArtifactReuse: two artifacts with equal options but
// different seeds (distinct machines of one shape) must share pooled
// rigs, and a rig that last served artifact A must serve artifact B
// exactly like B's own fresh clone.
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
		t.Fatal("same-shape artifacts must share pooled rigs")
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
	// Shapes k0..k9 differ only in ring size, enough to key them apart.
	shape := func(k int) testbed.Shape { return testbed.Shape{Slices: 1, RingSize: k} }
	const keys, perKey = 10, 5
	for k := 0; k < keys; k++ {
		for i := 0; i < perKey; i++ {
			pool.put(&attackRig{poolKey: shape(k)})
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
		if got := len(pool.idle[shape(k)]); got != want {
			t.Errorf("key k%d holds %d idle rigs, want %d", k, got, want)
		}
	}
	if got, want := pool.Stats(), (RigPoolStats{Dropped: keys*perKey - maxIdle}); got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}
	// A lease refreshes nothing, but a release does: k3 becomes the most
	// recently released key, so k4 is next to lose a rig.
	if pool.take(shape(3)) == nil || pool.take(shape(0)) != nil {
		t.Fatal("take served the wrong keys")
	}
	pool.put(&attackRig{poolKey: shape(3)})
	pool.put(&attackRig{poolKey: shape(3)})
	if got := len(pool.idle[shape(4)]); got != 4 {
		t.Errorf("k4 holds %d idle rigs after the refresh, want 4", got)
	}
	if got, want := pool.Stats(), (RigPoolStats{Adopted: 1, Fresh: 1, Dropped: keys*perKey - maxIdle + 1}); got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}
	// Untracked rigs (poolKey unset) are never pooled.
	pool.put(&attackRig{})
	if n := len(pool.idle[testbed.Shape{}]); n != 0 {
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
		return "", fmt.Errorf("a ring-randomizing trial never materialized its free list")
	}
	st, err := al.Snapshot().GobEncode()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("acc=%v sync=%v cal=%v nic=%+v free=%d alloc=%x",
		c.acc, c.outOfSync, c.calOK, r.tb.NIC().Stats(), al.FreePages(), sha256.Sum256(st)), nil
}

// TestRigCopyOnWriteSnapshotIntact: clones read their snapshot's page
// allocator state until they write, so concurrent ring-randomizing trials
// — pooled and fresh, reseeded and trial-0 — must each materialize a list
// of their own before they allocate. The artifact's bytes, allocator
// state included, are the same after the trials as before, and every
// pooled clone reproduces the fresh clone of its seed. Under -race a write
// into the shared state is a data race between the trials.
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
// a leased rig that never allocates a page reads the snapshot's allocator
// state through its whole trial and never materializes the 1 MiB free
// list, an idle pooled rig holds no free list at all, and a fresh demo
// clone allocates under 1 MiB — less than the free list it would
// otherwise hold.
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
				t.Errorf("seed %d lease %d: a non-randomizing trial materialized the free list", seed, i)
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
				t.Errorf("idle rig of %+v holds a free list of %d pages", key, n)
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
