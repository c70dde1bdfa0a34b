package sim

import (
	"bytes"
	"encoding/gob"
	"testing"
	"testing/quick"
)

// TestRNGSnapshotReplay: a restored RNG must reproduce the exact draw
// sequence the original produced after the snapshot point, across every
// draw kind the simulation uses (the kinds consume source steps at
// different rates, so this also guards the source-level counting).
func TestRNGSnapshotReplay(t *testing.T) {
	r := NewRNG(42)
	// Burn a mixed prefix.
	for i := 0; i < 1000; i++ {
		switch i % 5 {
		case 0:
			r.Intn(1000)
		case 1:
			r.Float64()
		case 2:
			r.ExpFloat64()
		case 3:
			r.Int63()
		case 4:
			r.Bernoulli(0.3)
		}
	}
	st := r.Snapshot()
	var want []float64
	for i := 0; i < 200; i++ {
		want = append(want, r.Float64(), float64(r.Intn(1<<30)), r.ExpFloat64())
	}
	r.Restore(&st)
	for i := 0; i < 200; i++ {
		got := []float64{r.Float64(), float64(r.Intn(1 << 30)), r.ExpFloat64()}
		for k, g := range got {
			if g != want[i*3+k] {
				t.Fatalf("draw %d/%d diverged after restore: %v != %v", i, k, g, want[i*3+k])
			}
		}
	}
}

// TestRNGRestoreIntoFreshRNG: restoring into a different RNG instance
// (the machine-clone path) behaves identically to restoring in place.
func TestRNGRestoreIntoFreshRNG(t *testing.T) {
	check := func(seed int64, burn uint16) bool {
		a := NewRNG(seed)
		for i := 0; i < int(burn); i++ {
			a.Intn(10)
		}
		st := a.Snapshot()
		b := NewRNG(0) // unrelated stream
		b.Restore(&st)
		for i := 0; i < 32; i++ {
			if a.Int63() != b.Int63() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRNGSnapshotOfDerivedStream: Derive'd streams snapshot and restore
// like root streams.
func TestRNGSnapshotOfDerivedStream(t *testing.T) {
	r := Derive(7, "noise")
	r.Float64()
	r.Float64()
	st := r.Snapshot()
	want := r.Int63()
	r.Restore(&st)
	if got := r.Int63(); got != want {
		t.Fatalf("derived stream diverged: %d != %d", got, want)
	}
	if st.Draws != 2 {
		t.Fatalf("draw count = %d want 2", st.Draws)
	}
}

// TestRNGDeltaRestoreMatchesScratch: restoring a state lands on the same
// stream wherever the RNG sat before — behind the state on its own seed,
// past it, or on another seed — draw for draw like a fresh RNG restored
// to it.
func TestRNGDeltaRestoreMatchesScratch(t *testing.T) {
	check := func(seed int64, burn, extra uint8) bool {
		orig := NewRNG(seed)
		for i := 0; i < int(burn); i++ {
			orig.Int63()
		}
		st := orig.Snapshot()
		behind := NewRNG(seed)
		for i := 0; i < int(burn)/2; i++ {
			behind.Int63()
		}
		past := NewRNG(seed)
		for i := 0; i < int(burn)+int(extra)+1; i++ {
			past.Int63()
		}
		other := NewRNG(seed + 1)
		other.Int63()
		scratch := NewRNG(0)
		for _, r := range []*RNG{behind, past, other, scratch} {
			r.Restore(&st)
			if r.Snapshot() != st {
				t.Fatalf("restored state differs from the captured one")
			}
		}
		for i := 0; i < 64; i++ {
			want := scratch.Int63()
			if behind.Int63() != want || past.Int63() != want || other.Int63() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestRNGStateGobRoundTrip: a decoded state restores the stream its
// capture did, and re-encodes to the same bytes.
func TestRNGStateGobRoundTrip(t *testing.T) {
	r := Derive(3, "timer")
	for i := 0; i < 5_000; i++ {
		r.Intn(17)
	}
	st := r.Snapshot()
	b, err := st.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var dec RNGState
	if err := dec.GobDecode(b); err != nil {
		t.Fatal(err)
	}
	if dec != st {
		t.Fatal("decoded state differs from the encoded one")
	}
	if b2, err := dec.GobEncode(); err != nil || !bytes.Equal(b, b2) {
		t.Fatalf("re-encoding changed the bytes (err %v)", err)
	}
	restored := NewRNG(0)
	restored.Restore(&dec)
	for i := 0; i < 100; i++ {
		if restored.Int63() != r.Int63() {
			t.Fatalf("decoded stream diverged at draw %d", i)
		}
	}
}

// encodedRNGState returns the gob of a captured state after edit has
// rewritten its wire form.
func encodedRNGState(t testing.TB, edit func(*rngStateGob)) []byte {
	t.Helper()
	st := NewRNG(9).Snapshot()
	w := rngStateGob{Seed: st.Seed, Draws: st.Draws, Tap: st.gen.tap, Feed: st.gen.feed, Vec: st.gen.vec[:]}
	edit(&w)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRNGStateGobDecodeRejectsBadGenerator: a generator no RNG could hold
// fails the decode, not the first draw after Restore. A state whose
// recorded position is absurd still decodes: the position is bookkeeping,
// and restoring it costs one copy.
func TestRNGStateGobDecodeRejectsBadGenerator(t *testing.T) {
	for name, edit := range map[string]func(*rngStateGob){
		"tap past register":  func(w *rngStateGob) { w.Tap = rngLen },
		"negative tap":       func(w *rngStateGob) { w.Tap = -1 },
		"feed past register": func(w *rngStateGob) { w.Feed = rngLen },
		"negative feed":      func(w *rngStateGob) { w.Feed = -1 },
		"short register":     func(w *rngStateGob) { w.Vec = w.Vec[:rngLen-1] },
		"long register":      func(w *rngStateGob) { w.Vec = append(w.Vec[:rngLen:rngLen], 1) },
		"no register":        func(w *rngStateGob) { w.Vec = nil },
	} {
		var st RNGState
		if err := st.GobDecode(encodedRNGState(t, edit)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	var st RNGState
	if err := st.GobDecode(encodedRNGState(t, func(w *rngStateGob) { w.Draws = 1 << 62 })); err != nil {
		t.Fatalf("huge draw count rejected: %v", err)
	}
}

// FuzzRNGStateGobDecode: no input panics the decoder, and a state it
// accepts restores into an RNG that draws.
func FuzzRNGStateGobDecode(f *testing.F) {
	f.Add(encodedRNGState(f, func(*rngStateGob) {}))
	f.Add(encodedRNGState(f, func(w *rngStateGob) { w.Tap = rngLen }))
	f.Add(encodedRNGState(f, func(w *rngStateGob) { w.Vec = w.Vec[:3] }))
	f.Fuzz(func(t *testing.T, b []byte) {
		var st RNGState
		if st.GobDecode(b) != nil {
			return
		}
		r := NewRNG(0)
		r.Restore(&st)
		for i := 0; i < 2*rngLen; i++ {
			r.Int63()
		}
	})
}

// TestRNGReseedMatchesNew: in-place Reseed is NewRNG by another name.
func TestRNGReseedMatchesNew(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 57; i++ {
		r.Float64()
	}
	r.Reseed(99)
	fresh := NewRNG(99)
	for i := 0; i < 32; i++ {
		if r.Int63() != fresh.Int63() {
			t.Fatal("reseeded stream diverged from fresh RNG")
		}
	}
}

// TestDeriveSeedParts: the two-part derivation must be byte-equivalent to
// deriving with the concatenated label — call sites use it to avoid the
// concatenation alloc, not to change the seed space.
func TestDeriveSeedParts(t *testing.T) {
	check := func(root int64, a, b string) bool {
		return DeriveSeedParts(root, a, b) == DeriveSeed(root, a+b)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestClockSnapshotRestore: Restore may rewind, unlike AdvanceTo.
func TestClockSnapshotRestore(t *testing.T) {
	c := NewClock()
	c.Advance(1000)
	st := c.Snapshot()
	c.Advance(500)
	c.Restore(st)
	if c.Now() != 1000 {
		t.Fatalf("restored clock at %d want 1000", c.Now())
	}
	// A restored clock must accept normal advancement again.
	c.AdvanceTo(1200)
	if c.Now() != 1200 {
		t.Fatalf("clock at %d want 1200", c.Now())
	}
}
