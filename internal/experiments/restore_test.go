package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"testing"

	"repro/internal/defense"
	"repro/internal/probe"
	"repro/internal/sim"
)

// gobRig encodes a rig artifact the way the disk store persists it.
func gobRig(t *testing.T, ra *RigArtifact) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ra); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRigArtifactGobBytesPinned pins the disk wire format. The gob bytes of
// two demo rig artifacts — the fig10 machine, and an adaptive-partitioning
// machine whose per-set counters take the cache codec's optional branch —
// must hash to the values recorded before cache lines were packed into
// one meta word, and decoding then re-encoding must reproduce them.
// artifactFormatVersion did not change with the packing, so disk entries
// written by older binaries must keep loading into the same state; any
// change here must come with a version bump.
func TestRigArtifactGobBytesPinned(t *testing.T) {
	ctx := PrepareCtx{Scale: Demo, Seed: 1}
	fig10, err := PrepareFig10(ctx)
	if err != nil {
		t.Fatal(err)
	}
	part := ctx.NewArtifact()
	if err := ctx.AddRig(part, "rig", baselineSpec(Demo).WithDefense(defense.AdaptivePartitioning{}).Options(1), probe.DefaultStrategy()); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		ra   *RigArtifact
		want string
	}{
		{"fig10", fig10.Rigs["rig"], "4a9574eed17f89b7cc0d9363c1606396ec0a4b30a69ec14afa9f4ae9e8f58217"},
		{"adaptive-partition", part.Rigs["rig"], "112dbf6599e38c45310189589baf849969f212c3ccbbed000a018e38d8a241ea"},
	} {
		b := gobRig(t, c.ra)
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: artifact gob sha256 %s, want %s", c.name, got, c.want)
		}
		var dec RigArtifact
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&dec); err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		if !bytes.Equal(gobRig(t, &dec), b) {
			t.Errorf("%s: decode+encode does not reproduce the artifact bytes", c.name)
		}
	}
}

// TestTrialZeroRestoreReplaysNoDraws is the deterministic gate on restore
// cost. Trial 0 of every unit measures with seed == root, so its rig is
// restored without reseeding and must land on the snapshot's exact RNG
// positions. Here the timer stream sits over 10⁶ draws into its history,
// as after a long offline phase. Restoring it through the fresh-clone path
// and the pooled adopt path — both as frontier search takes them — must
// replay zero generator steps: the snapshot's materialized generator
// states are copied in. The disk-decoded artifact, which carries only
// (seed, draws) positions, is the replay fallback; it must replay the
// history (the counter is not blind) and reach the identical machine.
func TestTrialZeroRestoreReplaysNoDraws(t *testing.T) {
	ctx := PrepareCtx{Scale: Demo, Seed: 7}
	art, err := PrepareFig10(ctx)
	if err != nil {
		t.Fatal(err)
	}
	m0 := MeasureCtx{Scale: Demo, Seed: art.Root}
	src, err := art.rig("rig", m0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1_000_000; i++ {
		src.spy.Touch(src.spy.PageBase(i%src.spy.Pages()) + uint64(i%64)*64)
	}
	snap, err := src.tb.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	long := ctx.NewArtifact()
	ra := art.Rigs["rig"]
	long.Rigs["rig"] = &RigArtifact{Opts: ra.Opts, Machine: snap, Spy: src.spy.State(), Groups: ra.Groups}

	before := sim.ReplayedDraws()
	fresh, err := long.rig("rig", m0)
	if err != nil {
		t.Fatal(err)
	}
	want := driveState(fresh)
	lease := NewRigPool().Lease()
	mp := m0
	mp.Rigs = lease
	victim, err := long.rig("rig", mp)
	if err != nil {
		t.Fatal(err)
	}
	poison(victim)
	lease.Release()
	pooled, err := long.rig("rig", mp)
	if err != nil {
		t.Fatal(err)
	}
	if pooled != victim {
		t.Fatal("pool did not hand back the released rig")
	}
	got := driveState(pooled)
	if d := sim.ReplayedDraws() - before; d != 0 {
		t.Fatalf("trial-0 restores replayed %d generator steps, want 0", d)
	}
	if got != want {
		t.Errorf("pooled trial-0 rig diverged from fresh clone:\nfresh:  %s\npooled: %s", want, got)
	}

	var dec RigArtifact
	if err := gob.NewDecoder(bytes.NewReader(gobRig(t, long.Rigs["rig"]))).Decode(&dec); err != nil {
		t.Fatal(err)
	}
	decoded := ctx.NewArtifact()
	decoded.Rigs["rig"] = &dec
	before = sim.ReplayedDraws()
	replayed, err := decoded.rig("rig", m0)
	if err != nil {
		t.Fatal(err)
	}
	if d := sim.ReplayedDraws() - before; d < 1_000_000 {
		t.Fatalf("disk-decoded restore replayed %d steps, want >= 10^6 (timer history)", d)
	}
	if got := driveState(replayed); got != want {
		t.Errorf("replayed trial-0 rig diverged from materialized restore:\nmaterialized: %s\nreplayed:     %s", want, got)
	}
}
