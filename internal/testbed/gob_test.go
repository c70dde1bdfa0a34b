package testbed

import (
	"bytes"
	"encoding/gob"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/nic"
	"repro/internal/sim"
)

// gobRoundTrip encodes a snapshot and decodes it into a fresh value.
func gobRoundTrip(t *testing.T, snap *Snapshot) *Snapshot {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatalf("encode: %v", err)
	}
	out := &Snapshot{}
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out
}

// TestSnapshotGobRoundTrip: a machine cloned from a gob-round-tripped
// snapshot must replay a deterministic workload bit-identically to a
// clone of the original snapshot — the property the disk-backed artifact
// store rests on. Covered machine variants include the partition defense
// (per-set counter state) and driver randomization (driver RNG state),
// since those exercise every optional branch of the wire format.
func TestSnapshotGobRoundTrip(t *testing.T) {
	variants := map[string]func(*Options){
		"baseline": func(*Options) {},
		"partition": func(o *Options) {
			o.Cache.Partition = cache.DefaultPartitionConfig()
		},
		"randomized-ring": func(o *Options) {
			o.NIC.Randomize = nic.RandomizeFull
		},
		"no-noise": func(o *Options) {
			o.NoiseRate = 0
			o.TimerNoise = 0
		},
	}
	for name, mutate := range variants {
		t.Run(name, func(t *testing.T) {
			opts := smallOptions(11)
			mutate(&opts)
			tb, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			// Drive the world into a non-trivial state before capturing.
			script := make([]byte, 160)
			rng := sim.NewRNG(5)
			for i := range script {
				script[i] = byte(rng.Intn(256))
			}
			worldOps(tb, script[:100])
			snap, err := tb.Snapshot()
			if err != nil {
				t.Fatal(err)
			}

			orig := shellClone(t, opts, snap)
			decoded := shellClone(t, opts, gobRoundTrip(t, snap))
			a := worldOps(orig, script[100:])
			b := worldOps(decoded, script[100:])
			if len(a) != len(b) {
				t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("observation %d: %d original, %d decoded", i, a[i], b[i])
				}
			}
		})
	}
}

// snapshotGobRewrite encodes snap, lets edit change its wire form, and
// re-encodes it.
func snapshotGobRewrite(t *testing.T, snap *Snapshot, edit func(*snapshotGob)) []byte {
	t.Helper()
	b, err := snap.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var w snapshotGob
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		t.Fatal(err)
	}
	edit(&w)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotGobDecodeRejectsMissingState: a snapshot without one of its
// components or RNG states cannot be restored, so it fails the decode.
func TestSnapshotGobDecodeRejectsMissingState(t *testing.T) {
	tb, err := New(smallOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := tb.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for name, edit := range map[string]func(*snapshotGob){
		"cache":     func(w *snapshotGob) { w.Cache = nil },
		"allocator": func(w *snapshotGob) { w.Alloc = nil },
		"nic":       func(w *snapshotGob) { w.NIC = nil },
		"noise RNG": func(w *snapshotGob) { w.NoiseRNG = nil },
		"timer RNG": func(w *snapshotGob) { w.TimerRNG = nil },
	} {
		var s Snapshot
		if err := s.GobDecode(snapshotGobRewrite(t, snap, edit)); err == nil {
			t.Errorf("snapshot without its %s decoded without error", name)
		}
	}
}

// TestAdoptIgnoresRecordedDrawCount is the regression test for a restore
// that took time in proportion to a decoded RNG position: with the timer
// RNG's draw count raised to 2^62, AdoptSnapshot must return at once and
// the timer stream must continue exactly as the uncorrupted snapshot's.
func TestAdoptIgnoresRecordedDrawCount(t *testing.T) {
	opts := smallOptions(6)
	tb, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	tb.Idle(50_000)
	snap, err := tb.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var corrupt Snapshot
	if err := corrupt.GobDecode(snapshotGobRewrite(t, snap, func(w *snapshotGob) { w.TimerRNG.Draws = 1 << 62 })); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if corrupt.timerRNG.Draws != 1<<62 {
		t.Fatalf("timer draw count %d after decode, want 2^62", corrupt.timerRNG.Draws)
	}
	got, err := NewShell(opts)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		got.AdoptSnapshot(opts, &corrupt)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("AdoptSnapshot of a snapshot with a huge timer draw count did not return")
	}
	want := shellClone(t, opts, snap)
	for i := 0; i < 1000; i++ {
		if g, w := got.timerRNG.Int63(), want.timerRNG.Int63(); g != w {
			t.Fatalf("timer draw %d: %d from the corrupted snapshot, %d from the clean one", i, g, w)
		}
	}
}
