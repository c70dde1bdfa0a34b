package mem

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/sim"
)

// eagerAllocator is the reference the lazy allocator is held to: the
// whole free list shuffled up front by rand.Rand.Shuffle, one bool per
// frame for the used set, and the same pop-from-tail and swap-remove
// operations.
type eagerAllocator struct {
	free []uint64
	used []bool
}

func newEager(pages int, rng *sim.RNG) *eagerAllocator {
	e := &eagerAllocator{free: make([]uint64, pages), used: make([]bool, pages)}
	for i := range e.free {
		e.free[i] = uint64(i)
	}
	rng.Shuffle(pages, func(i, j int) { e.free[i], e.free[j] = e.free[j], e.free[i] })
	return e
}

func (e *eagerAllocator) takeAt(i int) Addr {
	last := len(e.free) - 1
	pfn := e.free[i]
	e.free[i] = e.free[last]
	e.free = e.free[:last]
	e.used[pfn] = true
	return Addr(pfn * PageSize)
}

func (e *eagerAllocator) release(a Addr) {
	pfn := uint64(a) / PageSize
	e.used[pfn] = false
	e.free = append(e.free, pfn)
}

func (e *eagerAllocator) clone() *eagerAllocator {
	return &eagerAllocator{free: append([]uint64(nil), e.free...), used: append([]bool(nil), e.used...)}
}

// matchesEager reports whether a fully drawn allocator state equals the
// reference: free list in order, and the used set.
func matchesEager(st *AllocatorState, e *eagerAllocator) error {
	if len(st.free) != len(e.free) {
		return fmt.Errorf("%d free frames, reference %d", len(st.free), len(e.free))
	}
	for i := range st.free {
		if uint64(st.free[i]) != e.free[i] {
			return fmt.Errorf("free[%d] = %d, reference %d", i, st.free[i], e.free[i])
		}
	}
	if st.numPages != uint64(len(e.used)) {
		return fmt.Errorf("%d pages, reference %d", st.numPages, len(e.used))
	}
	for pfn, want := range e.used {
		if u := st.used[pfn/64]&(1<<(pfn%64)) != 0; u != want {
			return fmt.Errorf("frame %d used=%v, reference %v", pfn, u, want)
		}
	}
	return nil
}

// gobCopy round-trips an allocator state through its disk encoding.
func gobCopy(t *testing.T, st *AllocatorState) *AllocatorState {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	out := &AllocatorState{}
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLazyAllocatorMatchesEager drives the lazily shuffled allocator and
// the eager reference through one random mix of AllocPage,
// AllocPageRandom, FreePage, mid-sequence Snapshot/Restore and gob round
// trips, and demands the same address from every allocation and the same
// final state — at small sizes, where the free list empties and refills,
// and at 1 GiB, where allocations stay in the lazily drawn tail.
func TestLazyAllocatorMatchesEager(t *testing.T) {
	for _, c := range []struct {
		pages, ops int
	}{{1, 40}, {2, 60}, {7, 200}, {64, 2000}, {1000, 5000}, {1 << 18, 200}} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("pages%d/seed%d", c.pages, seed), func(t *testing.T) {
				lazy := NewAllocator(uint64(c.pages)*PageSize, sim.Derive(seed, "alloc"))
				ref := newEager(c.pages, sim.Derive(seed, "alloc"))
				lazyPick, refPick := sim.Derive(seed, "pick"), sim.Derive(seed, "pick")
				ops := sim.Derive(seed, "ops")
				var held []Addr
				var saved *AllocatorState
				var savedRef *eagerAllocator
				var savedHeld []Addr
				for i := 0; i < c.ops; i++ {
					switch op := ops.Intn(20); {
					case op < 8 || op < 12 && len(held) == 0:
						random := op >= 6
						var got Addr
						var err error
						if random {
							got, err = lazy.AllocPageRandom(lazyPick)
						} else {
							got, err = lazy.AllocPage()
						}
						if len(ref.free) == 0 {
							if err == nil {
								t.Fatalf("op %d: allocation succeeded on an empty reference", i)
							}
							continue
						}
						if err != nil {
							t.Fatalf("op %d: %v", i, err)
						}
						at := len(ref.free) - 1
						if random {
							at = refPick.Intn(len(ref.free))
						}
						if want := ref.takeAt(at); got != want {
							t.Fatalf("op %d (random=%v): got frame %d, reference %d", i, random, got/PageSize, want/PageSize)
						}
						held = append(held, got)
					case op < 12:
						k := ops.Intn(len(held))
						lazy.FreePage(held[k])
						ref.release(held[k])
						held = append(held[:k], held[k+1:]...)
					case op < 15:
						saved, savedRef, savedHeld = lazy.Snapshot(), ref.clone(), append([]Addr(nil), held...)
						if err := matchesEager(saved, ref); err != nil {
							t.Fatalf("op %d: snapshot: %v", i, err)
						}
					case op < 17 && saved != nil:
						lazy.Restore(saved)
						ref, held = savedRef.clone(), append([]Addr(nil), savedHeld...)
					case op < 20 && saved != nil:
						// A machine cloned from a disk entry continues from
						// the decoded state.
						lazy = NewAllocatorShell(uint64(c.pages) * PageSize)
						lazy.Restore(gobCopy(t, saved))
						ref, held = savedRef.clone(), append([]Addr(nil), savedHeld...)
					}
					if lazy.FreePages() != len(ref.free) {
						t.Fatalf("op %d: %d free pages, reference %d", i, lazy.FreePages(), len(ref.free))
					}
				}
				if err := matchesEager(lazy.Snapshot(), ref); err != nil {
					t.Fatalf("final state: %v", err)
				}
			})
		}
	}
}

// TestLazyAllocatorDrawCount is the deterministic gate on construction
// cost: k allocations from a fresh 1 GiB allocator draw under 2k values
// from its RNG where the eager shuffle drew over 262,143, and a Snapshot
// then draws the rest, landing exactly where the eager shuffle did.
func TestLazyAllocatorDrawCount(t *testing.T) {
	const pages, k = 1 << 18, 1700
	rng := sim.Derive(1, "page-alloc")
	al := NewAllocator(pages*PageSize, rng)
	for i := 0; i < k; i++ {
		if _, err := al.AllocPage(); err != nil {
			t.Fatal(err)
		}
	}
	if d := rng.Snapshot().Draws; d >= 2*k {
		t.Errorf("%d allocations drew %d values, want < %d", k, d, 2*k)
	}
	eager := sim.Derive(1, "page-alloc")
	eager.Shuffle(pages, func(int, int) {})
	al.Snapshot()
	if got, want := rng.Snapshot().Draws, eager.Snapshot().Draws; got != want {
		t.Errorf("after Snapshot: %d draws, eager shuffle %d", got, want)
	}
}

// TestAllocatorSnapshotBytes gates the compact layout: a 1 GiB snapshot is
// a uint32 free list plus a bitset, at most 1.1 MiB.
func TestAllocatorSnapshotBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
	al := NewAllocator(1<<30, sim.Derive(1, "page-alloc"))
	al.Snapshot() // draw the whole shuffle outside the measurement
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st := al.Snapshot()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 11<<20/10 {
		t.Errorf("1 GiB allocator snapshot allocated %d bytes, want <= 1.1 MiB", got)
	}
	runtime.KeepAlive(st)
}

// corruptAllocatorStates are wire forms no allocator could have written.
var corruptAllocatorStates = map[string]allocatorStateGob{
	"free frame out of range": {Free: []uint32{5}, Used: []uint64{0}, NumPages: 3},
	"used frame out of range": {Used: []uint64{1 << 3}, NumPages: 3},
	"listed twice":            {Free: []uint32{1, 1}, Used: []uint64{0}, NumPages: 3},
	"free and used":           {Free: []uint32{1}, Used: []uint64{1 << 1}, NumPages: 3},
	"short bitset":            {Free: []uint32{0}, NumPages: 3},
	"long bitset":             {Used: []uint64{0, 0}, NumPages: 3},
	"more free than pages":    {Free: []uint32{0, 1, 2}, Used: []uint64{0}, NumPages: 2},
	"too large":               {NumPages: 1<<32 + 1},
}

// encodeAllocatorStateGob gob-encodes a wire form.
func encodeAllocatorStateGob(t testing.TB, w allocatorStateGob) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAllocatorStateGobDecodeRejectsCorrupt: every corrupt wire form
// fails the decode, and a hand-built valid one passes.
func TestAllocatorStateGobDecodeRejectsCorrupt(t *testing.T) {
	var ok AllocatorState
	if err := ok.GobDecode(encodeAllocatorStateGob(t, allocatorStateGob{Free: []uint32{0, 1}, Used: []uint64{1 << 2}, NumPages: 3})); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
	for name, w := range corruptAllocatorStates {
		var st AllocatorState
		if err := st.GobDecode(encodeAllocatorStateGob(t, w)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// FuzzAllocatorStateGobDecode: no input panics the decoder, and every
// input it accepts re-encodes to bytes that decode to the same state and
// encode identically again.
func FuzzAllocatorStateGobDecode(f *testing.F) {
	al := NewAllocator(300*PageSize, sim.NewRNG(1))
	if _, err := al.AllocPages(40); err != nil {
		f.Fatal(err)
	}
	good, err := al.Snapshot().GobEncode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(encodeAllocatorStateGob(f, allocatorStateGob{Free: []uint32{0, 1}, Used: []uint64{1 << 2}, NumPages: 3}))
	for _, w := range corruptAllocatorStates {
		f.Add(encodeAllocatorStateGob(f, w))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var w allocatorStateGob
		if gob.NewDecoder(bytes.NewReader(b)).Decode(&w) == nil && w.NumPages > 1<<24 {
			return // valid but huge: the bitset alone would take MBs per input
		}
		var st AllocatorState
		if st.GobDecode(b) != nil {
			return
		}
		enc, err := st.GobEncode()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		var st2 AllocatorState
		if err := st2.GobDecode(enc); err != nil {
			t.Fatalf("decode of re-encoded state: %v", err)
		}
		if !reflect.DeepEqual(st, st2) {
			t.Fatal("state changed across a gob round trip")
		}
		if enc2, err := st2.GobEncode(); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding not stable across a round trip (err %v)", err)
		}
	})
}
