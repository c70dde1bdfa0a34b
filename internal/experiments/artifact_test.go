package experiments

import (
	"sync"
	"testing"

	"repro/internal/defense"
	"repro/internal/probe"
	"repro/internal/scenario"
	"repro/internal/testbed"
)

// TestArtifactStoreDedup: repeated Prepare calls against one store must
// perform the offline build exactly once per distinct machine, and hand
// every caller the same artifact.
func TestArtifactStoreDedup(t *testing.T) {
	store := NewArtifactStore()
	ctx := PrepareCtx{Scale: Demo, Seed: 5, Store: store}

	a1, err := PrepareFig10(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if store.Builds() != 1 {
		t.Fatalf("builds = %d after first prepare, want 1", store.Builds())
	}
	a2, err := PrepareFig10(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if store.Builds() != 1 {
		t.Fatalf("builds = %d after second prepare, want 1 (store must dedup)", store.Builds())
	}
	if a1.Rigs["rig"] != a2.Rigs["rig"] {
		t.Error("warm prepares must share the cached rig artifact")
	}
}

// TestArtifactStoreKeysSeparateMachines: a different offline seed, and a
// different machine shape under the same seed, must both miss the cache.
func TestArtifactStoreKeysSeparateMachines(t *testing.T) {
	store := NewArtifactStore()
	if _, err := PrepareFig10(PrepareCtx{Scale: Demo, Seed: 5, Store: store}); err != nil {
		t.Fatal(err)
	}
	if _, err := PrepareFig10(PrepareCtx{Scale: Demo, Seed: 6, Store: store}); err != nil {
		t.Fatal(err)
	}
	if store.Builds() != 2 {
		t.Fatalf("builds = %d across two seeds, want 2", store.Builds())
	}
	// Fingerprint prepares two machines (DDIO on/off) under one seed: the
	// shape difference must key them apart.
	art, err := PrepareFingerprint(PrepareCtx{Scale: Demo, Seed: 5, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if art.Rigs["ddio"] == art.Rigs["noddio"] {
		t.Error("DDIO-on and DDIO-off machines must be distinct artifacts")
	}
}

// TestDefenseTagKeysSeparateArtifacts: machines that differ only in a
// defense invisible to the option fingerprint (timer coarsening changes
// only TimerNoise) must still key separate store entries — their offline
// phases ran under different timers, so sharing a clone across the
// defense boundary would be wrong.
func TestDefenseTagKeysSeparateArtifacts(t *testing.T) {
	store := NewArtifactStore()
	ctx := PrepareCtx{Scale: Demo, Seed: 5, Store: store}
	opts := machineOptions(Demo, 5)
	coarse := opts
	defense.TimerCoarsening{Jitter: 64}.Apply(&coarse)

	art := ctx.NewArtifact()
	if err := ctx.AddRig(art, "plain", opts, probe.DefaultStrategy()); err != nil {
		t.Fatal(err)
	}
	if err := ctx.AddRig(art, "coarse", coarse, probe.DefaultStrategy()); err != nil {
		t.Fatal(err)
	}
	if store.Builds() != 2 {
		t.Fatalf("builds = %d for two defense variants of one machine shape, want 2", store.Builds())
	}
	if art.Rigs["plain"] == art.Rigs["coarse"] {
		t.Error("defense variants must not share an artifact")
	}
	// The same variant again: cache hit.
	if err := ctx.AddRig(art, "coarse2", coarse, probe.DefaultStrategy()); err != nil {
		t.Fatal(err)
	}
	if store.Builds() != 2 {
		t.Fatalf("builds = %d after repeat defended prepare, want 2", store.Builds())
	}
	if art.Rigs["coarse2"] != art.Rigs["coarse"] {
		t.Error("equal options must share the cached artifact")
	}
}

// TestRigKeySplitsOnlineKnobs: the offline phase calibrates under the
// timer and the background noise in force, so two option sets that
// differ only in TimerNoise, or only in NoiseRate, are two builds — each
// machine calibrated under its own environment, not one shared.
func TestRigKeySplitsOnlineKnobs(t *testing.T) {
	base := machineOptions(Demo, 5)
	timer, noise := base, base
	timer.TimerNoise = base.TimerNoise + 60
	noise.NoiseRate = base.NoiseRate * 2
	for name, other := range map[string]testbed.Options{"TimerNoise": timer, "NoiseRate": noise} {
		store := NewArtifactStore()
		ctx := PrepareCtx{Scale: Demo, Seed: 5, Store: store}
		art := ctx.NewArtifact()
		if err := ctx.AddRig(art, "base", base, probe.DefaultStrategy()); err != nil {
			t.Fatal(err)
		}
		if err := ctx.AddRig(art, "other", other, probe.DefaultStrategy()); err != nil {
			t.Fatal(err)
		}
		if store.Builds() != 2 {
			t.Errorf("%s: builds = %d for options differing only in %s, want 2", name, store.Builds(), name)
		}
		if got := art.Rigs["other"].Opts; got != other {
			t.Errorf("%s: rig prepared under %+v, want %+v", name, got, other)
		}
	}
}

// TestRigKeyIgnoresScaleAndRoot: the build reads only the options and
// the strategy, so identical options prepared under different artifact
// roots or scales are one build.
func TestRigKeyIgnoresScaleAndRoot(t *testing.T) {
	store := NewArtifactStore()
	opts := machineOptions(Demo, 5)
	var rigs []*RigArtifact
	for _, ctx := range []PrepareCtx{
		{Scale: Demo, Seed: 5, Store: store},
		{Scale: Demo, Seed: 6, Store: store},
		{Scale: Paper, Seed: 5, Store: store},
	} {
		art := ctx.NewArtifact()
		if err := ctx.AddRig(art, "rig", opts, probe.DefaultStrategy()); err != nil {
			t.Fatal(err)
		}
		rigs = append(rigs, art.Rigs["rig"])
	}
	if store.Builds() != 1 {
		t.Fatalf("builds = %d for one option set under three roots/scales, want 1", store.Builds())
	}
	if rigs[1] != rigs[0] || rigs[2] != rigs[0] {
		t.Error("identical options must share one artifact")
	}
}

// TestRigKeyIdentity pins rigKey as the one machine identity: what the
// offline phase builds separates keys, and what only the online phase
// sees (name, the swept noise and timer that Offline()
// resets) does not.
func TestRigKeyIdentity(t *testing.T) {
	const seed = 5
	def, amp := probe.DefaultStrategy(), probe.AmplifiedStrategy()
	key := func(s scenario.Spec, strat probe.Strategy) string {
		return rigKey(s.Offline().Options(seed), strat)
	}
	base := scenario.Baseline(false)

	seen := map[string]string{}
	for _, d := range defense.All() {
		k := key(base.WithDefense(d), def)
		if prev, ok := seen[k]; ok {
			t.Errorf("defenses %s and %s share rig key %q", prev, d.Name(), k)
		}
		seen[k] = d.Name()
	}

	online := base
	online.Name = "renamed"
	online.NoiseRate = 9_999_999
	online.TimerNoise = 400
	tc := func(j uint64) defense.Defense { return defense.TimerCoarsening{Jitter: j} }
	part := defense.AdaptivePartitioning{}
	for _, c := range []struct {
		name   string
		a, b   scenario.Spec
		sa, sb probe.Strategy
		equal  bool
	}{
		{"online-only fields", base, online, def, def, true},
		{"demo vs paper", base, scenario.Baseline(true), def, def, false},
		{"default vs amplified attacker", base, base, def, amp, false},
		{"same-type stack order", base.WithDefense(defense.NewStack(tc(32), tc(64))),
			base.WithDefense(defense.NewStack(tc(64), tc(32))), def, def, false},
		{"commuting stack order", base.WithDefense(defense.NewStack(part, tc(64))),
			base.WithDefense(defense.NewStack(tc(64), part)), def, def, true},
	} {
		ka, kb := key(c.a, c.sa), key(c.b, c.sb)
		if (ka == kb) != c.equal {
			t.Errorf("%s: keys %q and %q, want equal=%v", c.name, ka, kb, c.equal)
		}
	}
}

// TestArtifactStoreConcurrentSingleflight: concurrent prepares of the
// same machine must block on one build rather than racing several.
func TestArtifactStoreConcurrentSingleflight(t *testing.T) {
	store := NewArtifactStore()
	var wg sync.WaitGroup
	arts := make([]*Artifact, 8)
	errs := make([]error, 8)
	for i := range arts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arts[i], errs[i] = PrepareFig10(PrepareCtx{Scale: Demo, Seed: 9, Store: store})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("prepare %d: %v", i, err)
		}
	}
	if store.Builds() != 1 {
		t.Fatalf("builds = %d under concurrency, want 1", store.Builds())
	}
	for i := 1; i < len(arts); i++ {
		if arts[i].Rigs["rig"] != arts[0].Rigs["rig"] {
			t.Fatal("concurrent prepares must converge on one artifact")
		}
	}
}

// TestArtifactHolderRelease: holders claim what they fetch, from
// several goroutines at once and overlapping on one key. The entry stays
// resident while any holder remains and leaves with the last; the next
// fetch builds it again. An entry no holder claimed stays for the
// store's lifetime.
func TestArtifactHolderRelease(t *testing.T) {
	store := NewArtifactStore()
	if _, err := PrepareFig10(PrepareCtx{Scale: Demo, Seed: 4, Store: store}); err != nil {
		t.Fatal(err)
	}
	holders := []*ArtifactHolder{store.NewHolder(), store.NewHolder()}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = PrepareFig10(PrepareCtx{Scale: Demo, Seed: 5, Store: store, Holder: holders[i%2]})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("prepare %d: %v", i, err)
		}
	}
	resident := func(step string, want int) {
		t.Helper()
		if got := store.Resident(); got != want {
			t.Fatalf("%s: %d entries resident, want %d", step, got, want)
		}
	}
	if got := store.Builds(); got != 2 {
		t.Fatalf("builds = %d, want 2", got)
	}
	resident("both holders", 2)
	holders[0].Release()
	resident("one holder released", 2)
	holders[1].Release()
	resident("both released", 1)
	holders[1].Release()
	resident("released twice", 1)
	if _, err := PrepareFig10(PrepareCtx{Scale: Demo, Seed: 5, Store: store}); err != nil {
		t.Fatal(err)
	}
	if got := store.Builds(); got != 3 {
		t.Fatalf("builds = %d after fetching a released entry, want 3", got)
	}
}

// TestArtifactStorePanicDoesNotPoison: an offline build that panics must
// surface as an error on every warm trial — not report the panic once
// and then hand later trials a nil artifact from the poisoned cache
// entry.
func TestArtifactStorePanicDoesNotPoison(t *testing.T) {
	store := NewArtifactStore()
	// MemBytes below one page makes mem.NewAllocator panic inside the
	// offline build.
	bad := machineOptions(Demo, 1)
	bad.MemBytes = 512
	ctx := PrepareCtx{Scale: Demo, Seed: 1, Store: store}
	for trial := 0; trial < 3; trial++ {
		art := ctx.NewArtifact()
		err := ctx.AddRig(art, "rig", bad, probe.DefaultStrategy())
		if err == nil {
			t.Fatalf("trial %d: broken build must error", trial)
		}
		if len(art.Rigs) != 0 {
			t.Fatalf("trial %d: failed build filed a rig: %+v", trial, art.Rigs)
		}
	}
	if store.Builds() != 0 {
		t.Fatalf("failed builds counted as successes: %d", store.Builds())
	}
	// And cold (store-less) prepares report the same error bytes, which
	// is what keeps failing warm and cold runs byte-identical too.
	warmErr := PrepareCtx{Scale: Demo, Seed: 1, Store: store}
	coldErr := PrepareCtx{Scale: Demo, Seed: 1}
	e1 := warmErr.AddRig(warmErr.NewArtifact(), "rig", bad, probe.DefaultStrategy())
	e2 := coldErr.AddRig(coldErr.NewArtifact(), "rig", bad, probe.DefaultStrategy())
	if e1 == nil || e2 == nil || e1.Error() != e2.Error() {
		t.Fatalf("warm/cold error bytes differ: %v vs %v", e1, e2)
	}
}

// TestPrepareSweepRigsValidatesFullCellSpec: a malformed cell must fail
// fast on the cell's full measurement spec — Offline() normalization
// would otherwise silently mask a bad environment value (negative noise
// becomes the reference rate) and the cell would measure under the
// wrong conditions.
func TestPrepareSweepRigsValidatesFullCellSpec(t *testing.T) {
	cell := scenario.NewCell([]string{scenario.AxisNoiseRate}, []float64{-1})
	if _, err := prepareSweepRigs(PrepareCtx{Scale: Demo, Seed: 1}, cell); err == nil {
		t.Fatal("negative noise_rate cell must fail validation")
	}
}

// TestMeasureClonesAreIndependent: two clones cut from one artifact must
// not share mutable machine state — measuring on one must not perturb the
// other (this is what makes concurrent warm trials safe).
func TestMeasureClonesAreIndependent(t *testing.T) {
	ctx := PrepareCtx{Scale: Demo, Seed: 3}
	art, err := PrepareFig10(ctx)
	if err != nil {
		t.Fatal(err)
	}
	m := MeasureCtx{Scale: Demo, Seed: 3}
	a, err := art.rig("rig", m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := art.rig("rig", m)
	if err != nil {
		t.Fatal(err)
	}
	if a.tb == b.tb || a.spy == b.spy {
		t.Fatal("clones share a machine")
	}
	startB := b.tb.Clock().Now()
	// Disturb clone A heavily.
	for i := 0; i < 1000; i++ {
		a.spy.Touch(a.spy.PageBase(0) + uint64(i%64)*64)
	}
	a.tb.Idle(1_000_000)
	if b.tb.Clock().Now() != startB {
		t.Error("driving one clone advanced the other's clock")
	}
	// Both clones restored from one snapshot: identical starting stats.
	if a.tb.NIC().Stats() != b.tb.NIC().Stats() {
		t.Error("clone NIC stats diverged without B being driven")
	}
}
