package testbed

import (
	"bytes"
	"encoding/gob"
	"testing"

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
