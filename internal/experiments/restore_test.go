package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"testing"

	"repro/internal/defense"
	"repro/internal/probe"
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
// machine whose per-set counters fill the cache codec's optional field —
// must hash to the values recorded for packetchasing-artifact/v4, and
// decoding then re-encoding must reproduce them. Any change to these
// bytes must come with an artifactFormatVersion bump, so entries written
// in another format miss the store instead of decoding into wrong state.
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
		{"fig10", fig10.Rigs["rig"], "ba2237759dd4cdc0f88d91a52a6bc982298719aa59ba8b23ece70ec778f90982"},
		{"adaptive-partition", part.Rigs["rig"], "bf5fa369055de10abd083c4b8e42f49ebf450103344ea7a3159a8d8a37ddb179"},
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

// TestTrialZeroRestoreReplaysNoDraws is the deterministic gate on the
// trial-0 restore. Trial 0 of every unit measures with seed == root, so
// its rig is restored without reseeding and must land on the snapshot's
// exact RNG states. Here the timer stream sits over 10⁶ draws into its
// history, as after a long offline phase. Restoring it through the
// fresh-clone path, the pooled adopt path — both as frontier search takes
// them — and from the disk-decoded artifact must give byte-identical
// machines: every path copies the snapshot's generator states, so none
// replays the history.
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
	if got := driveState(pooled); got != want {
		t.Errorf("pooled trial-0 rig diverged from fresh clone:\nfresh:  %s\npooled: %s", want, got)
	}

	var dec RigArtifact
	if err := gob.NewDecoder(bytes.NewReader(gobRig(t, long.Rigs["rig"]))).Decode(&dec); err != nil {
		t.Fatal(err)
	}
	decoded := ctx.NewArtifact()
	decoded.Rigs["rig"] = &dec
	fromDisk, err := decoded.rig("rig", m0)
	if err != nil {
		t.Fatal(err)
	}
	if got := driveState(fromDisk); got != want {
		t.Errorf("disk-decoded trial-0 rig diverged from fresh clone:\nfresh:   %s\ndecoded: %s", want, got)
	}
}
