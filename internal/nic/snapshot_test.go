package nic

import (
	"bytes"
	"encoding/gob"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
)

// smallRig is an 8-descriptor driver on a tiny cache: cheap enough to
// build once per fuzz input.
func smallRig(t testing.TB) *rig {
	t.Helper()
	clock := sim.NewClock()
	c := cache.New(cache.ScaledConfig(1, 64, 4), clock)
	alloc := mem.NewAllocator(1<<22, sim.NewRNG(42))
	cfg := DefaultConfig()
	cfg.RingSize = 8
	cfg.SKBPages = 4
	n, err := New(cfg, c, alloc, clock, sim.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	return &rig{cache: c, alloc: alloc, clock: clock, nic: n}
}

// encodedSnapshot returns the gob of a small rig's snapshot taken with
// received frames still queued for the driver, after edit has had a
// chance to rewrite its wire form.
func encodedSnapshot(t testing.TB, edit func(*snapshotGob)) []byte {
	t.Helper()
	r := smallRig(t)
	for i := 0; i < 11; i++ {
		r.deliver(frame(uint64(i), 64+100*i, uint64(1_000*i), i%3 != 0))
	}
	r.nic.Receive(frame(11, 1500, r.clock.Now(), true))
	b, err := r.nic.Snapshot().GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	if edit == nil {
		return b
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

// TestSnapshotGobDecodeRejectsOutOfRange: cursors and queued descriptor
// indices outside the ring or skb pool must fail the decode, not the
// next Receive.
func TestSnapshotGobDecodeRejectsOutOfRange(t *testing.T) {
	var s Snapshot
	if err := s.GobDecode(encodedSnapshot(t, nil)); err != nil {
		t.Fatalf("clean snapshot rejected: %v", err)
	}
	for name, edit := range map[string]func(*snapshotGob){
		"head past ring":     func(w *snapshotGob) { w.Head = 99 },
		"negative head":      func(w *snapshotGob) { w.Head = -1 },
		"empty ring":         func(w *snapshotGob) { w.Ring, w.Head, w.Queue = nil, 0, nil },
		"skb cursor at pool": func(w *snapshotGob) { w.SKBIdx = len(w.SKB) },
		"queued desc":        func(w *snapshotGob) { w.Queue[0].DescIdx = len(w.Ring) },
	} {
		var s Snapshot
		if err := s.GobDecode(encodedSnapshot(t, edit)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// FuzzNICSnapshotGobDecode: no input panics the decoder, and every
// snapshot it accepts restores into a driver of its ring size and takes
// one Receive. The restore skips the driver RNG: replaying a recorded
// stream position costs time in proportion to the position, which is
// not a shape the decoder can check.
func FuzzNICSnapshotGobDecode(f *testing.F) {
	f.Add(encodedSnapshot(f, nil))
	f.Add(encodedSnapshot(f, func(w *snapshotGob) { w.Head = 99 }))
	f.Fuzz(func(t *testing.T, b []byte) {
		var s Snapshot
		if s.GobDecode(b) != nil {
			return
		}
		clock := sim.NewClock()
		cfg := DefaultConfig()
		cfg.RingSize = len(s.ring)
		cfg.SKBPages = len(s.skb)
		n, err := NewShell(cfg, cache.New(cache.ScaledConfig(1, 64, 4), clock), mem.NewAllocatorShell(1<<22), clock, nil)
		if err != nil {
			t.Fatalf("accepted snapshot has no driver shape: %v", err)
		}
		n.RestoreSkipRNG(&s)
		n.Receive(frame(0, 1500, 0, true))
	})
}
