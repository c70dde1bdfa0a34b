package mem

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"runtime"
	"strings"
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

// drawnList returns the state's free list fully drawn — the order the
// eager shuffle holds — by materializing it into a scratch allocator and
// drawing the rest there, leaving st untouched.
func drawnList(st *AllocatorState) []uint32 {
	al := NewAllocatorShell(st.numPages * PageSize)
	al.Restore(st)
	al.own()
	al.drawTo(0)
	return al.free
}

// matchesEager reports whether an allocator state equals the reference:
// free list in order once drawn, and the used set.
func matchesEager(st *AllocatorState, e *eagerAllocator) error {
	free := drawnList(st)
	if len(free) != len(e.free) {
		return fmt.Errorf("%d free frames, reference %d", len(free), len(e.free))
	}
	for i := range free {
		if uint64(free[i]) != e.free[i] {
			return fmt.Errorf("free[%d] = %d, reference %d", i, free[i], e.free[i])
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

// mirror drives the lazy allocator and the eager reference in lockstep,
// each with its own copy of the pick stream.
type mirror struct {
	lazy              *Allocator
	ref               *eagerAllocator
	lazyPick, refPick *sim.RNG
	held              []Addr
}

// alloc allocates one page from both sides, AllocPageRandom when random,
// and fails the test unless both return the same frame or both fail.
func (m *mirror) alloc(t *testing.T, step int, random bool) {
	t.Helper()
	var got Addr
	var err error
	if random {
		got, err = m.lazy.AllocPageRandom(m.lazyPick)
	} else {
		got, err = m.lazy.AllocPage()
	}
	if len(m.ref.free) == 0 {
		if err == nil {
			t.Fatalf("op %d: allocation succeeded on an empty reference", step)
		}
		return
	}
	if err != nil {
		t.Fatalf("op %d: %v", step, err)
	}
	at := len(m.ref.free) - 1
	if random {
		at = m.refPick.Intn(len(m.ref.free))
	}
	if want := m.ref.takeAt(at); got != want {
		t.Fatalf("op %d (random=%v): got frame %d, reference %d", step, random, got/PageSize, want/PageSize)
	}
	m.held = append(m.held, got)
}

// free releases the k-th held page on both sides.
func (m *mirror) free(k int) {
	m.lazy.FreePage(m.held[k])
	m.ref.release(m.held[k])
	m.held = append(m.held[:k], m.held[k+1:]...)
}

// TestLazyAllocatorMatchesEager drives the lazily shuffled allocator and
// the eager reference through one random mix of AllocPage,
// AllocPageRandom, FreePage, mid-sequence Snapshot/Restore and gob round
// trips, and demands the same address from every allocation and the same
// final state — at small sizes, where the free list empties and refills,
// and at 1 GiB, where allocations stay in the lazily drawn tail. The
// depth cases snapshot at several shuffle depths — nothing drawn, a
// drawn tail, a deep AllocPageRandom draw, fully drawn — and continue
// each operation from the gob-decoded state restored into a shell.
func TestLazyAllocatorMatchesEager(t *testing.T) {
	for _, c := range []struct {
		pages, ops int
	}{{1, 40}, {2, 60}, {7, 200}, {64, 2000}, {1000, 5000}, {1 << 18, 200}} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("pages%d/seed%d", c.pages, seed), func(t *testing.T) {
				m := &mirror{
					lazy:     NewAllocator(uint64(c.pages)*PageSize, sim.Derive(seed, "alloc")),
					ref:      newEager(c.pages, sim.Derive(seed, "alloc")),
					lazyPick: sim.Derive(seed, "pick"), refPick: sim.Derive(seed, "pick"),
				}
				ops := sim.Derive(seed, "ops")
				var saved *AllocatorState
				var savedRef *eagerAllocator
				var savedHeld []Addr
				for i := 0; i < c.ops; i++ {
					switch op := ops.Intn(20); {
					case op < 8 || op < 12 && len(m.held) == 0:
						m.alloc(t, i, op >= 6)
					case op < 12:
						m.free(ops.Intn(len(m.held)))
					case op < 15:
						saved, savedRef, savedHeld = m.lazy.Snapshot(), m.ref.clone(), append([]Addr(nil), m.held...)
						if err := matchesEager(saved, m.ref); err != nil {
							t.Fatalf("op %d: snapshot: %v", i, err)
						}
					case op < 17 && saved != nil:
						m.lazy.Restore(saved)
						m.ref, m.held = savedRef.clone(), append([]Addr(nil), savedHeld...)
					case op < 20 && saved != nil:
						// A machine cloned from a disk entry continues from
						// the decoded state.
						m.lazy = NewAllocatorShell(uint64(c.pages) * PageSize)
						m.lazy.Restore(gobCopy(t, saved))
						m.ref, m.held = savedRef.clone(), append([]Addr(nil), savedHeld...)
					}
					if m.lazy.FreePages() != len(m.ref.free) {
						t.Fatalf("op %d: %d free pages, reference %d", i, m.lazy.FreePages(), len(m.ref.free))
					}
				}
				if err := matchesEager(m.lazy.Snapshot(), m.ref); err != nil {
					t.Fatalf("final state: %v", err)
				}
			})
		}
	}

	const pages = 1 << 12
	for _, depth := range []struct {
		name    string
		prepare func(t *testing.T, m *mirror)
	}{
		{"undrawn", func(*testing.T, *mirror) {}},
		{"tail", func(t *testing.T, m *mirror) {
			for i := 0; i < 100; i++ {
				m.alloc(t, i, false)
			}
			m.free(40)
		}},
		{"deep-random", func(t *testing.T, m *mirror) {
			m.alloc(t, 0, false)
			for i := 1; i < 4; i++ {
				m.alloc(t, i, true)
			}
		}},
		{"fully-drawn", func(t *testing.T, m *mirror) {
			for i := 0; i < pages; i++ {
				m.alloc(t, i, false)
			}
			for i := 0; i < pages/2; i++ {
				m.free(0)
			}
		}},
	} {
		for _, op := range []string{"AllocPage", "AllocPageRandom", "FreePage"} {
			t.Run(fmt.Sprintf("depth-%s/%s", depth.name, op), func(t *testing.T) {
				m := &mirror{
					lazy:     NewAllocator(pages*PageSize, sim.Derive(9, "alloc")),
					ref:      newEager(pages, sim.Derive(9, "alloc")),
					lazyPick: sim.Derive(9, "pick"), refPick: sim.Derive(9, "pick"),
				}
				depth.prepare(t, m)
				st := m.lazy.Snapshot()
				m.lazy = NewAllocatorShell(pages * PageSize)
				m.lazy.Restore(gobCopy(t, st))
				for i := 0; i < 64; i++ {
					switch {
					case op == "FreePage" && i%2 == 0 && len(m.held) > 0:
						m.free(len(m.held) / 2)
					default:
						m.alloc(t, i, op == "AllocPageRandom")
					}
				}
				if err := matchesEager(m.lazy.Snapshot(), m.ref); err != nil {
					t.Fatalf("final state: %v", err)
				}
			})
		}
	}
}

// TestLazyAllocatorDrawCount is the deterministic gate on construction
// cost: k allocations from a fresh 1 GiB allocator draw under 2k values
// from its RNG where the eager shuffle drew over 262,143, and a Snapshot
// draws nothing.
func TestLazyAllocatorDrawCount(t *testing.T) {
	const pages, k = 1 << 18, 1700
	rng := sim.Derive(1, "page-alloc")
	al := NewAllocator(pages*PageSize, rng)
	for i := 0; i < k; i++ {
		if _, err := al.AllocPage(); err != nil {
			t.Fatal(err)
		}
	}
	d := rng.Snapshot().Draws
	if d >= 2*k {
		t.Errorf("%d allocations drew %d values, want < %d", k, d, 2*k)
	}
	al.Snapshot()
	if got := rng.Snapshot().Draws; got != d {
		t.Errorf("Snapshot drew %d values, want none", got-d)
	}
}

// TestAllocatorSnapshotBytes gates the lazy layout: a snapshot of a 1 GiB
// allocator after 1,700 allocations holds the used bitset, the shuffle
// stream and the positions those allocations drew — no free list — and
// allocates exactly the bytes measured for that layout.
// snapshotBytes is what that snapshot allocates, measured with Go 1.24 on
// linux/amd64: the 32 KiB used bitset, the shuffle stream and the moved
// prefix positions.
const snapshotBytes = 51840

func TestAllocatorSnapshotBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
	al := NewAllocator(1<<30, sim.Derive(1, "page-alloc"))
	for i := 0; i < 1700; i++ {
		if _, err := al.AllocPage(); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st := al.Snapshot()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > snapshotBytes {
		t.Errorf("1 GiB allocator snapshot allocated %d bytes, want <= %d", got, snapshotBytes)
	}
	runtime.KeepAlive(st)
}

// validRNG is a shuffle-stream state for hand-built wire forms.
var validRNG = func() *sim.RNGState { st := sim.NewRNG(1).Snapshot(); return &st }()

// validAllocatorStates are hand-built wire forms an allocator could have
// written: fully drawn, and a lazy one whose two undrawn positions were
// swapped by a draw.
var validAllocatorStates = map[string]allocatorStateGob{
	"drawn": {Suffix: []uint32{0, 1}, Used: []uint64{1 << 2}, NumPages: 3},
	"lazy":  {Drawn: 2, Pos: []uint32{0, 1}, Val: []uint32{1, 0}, Suffix: []uint32{2}, RNG: validRNG, Used: []uint64{0}, NumPages: 3},
}

// corruptAllocatorStates are wire forms no allocator could have written.
var corruptAllocatorStates = map[string]allocatorStateGob{
	"free frame out of range": {Suffix: []uint32{5}, Used: []uint64{0}, NumPages: 3},
	"used frame out of range": {Used: []uint64{1 << 3}, NumPages: 3},
	"listed twice":            {Suffix: []uint32{1, 1}, Used: []uint64{0}, NumPages: 3},
	"free and used":           {Suffix: []uint32{1}, Used: []uint64{1 << 1}, NumPages: 3},
	"short bitset":            {Suffix: []uint32{0}, NumPages: 3},
	"long bitset":             {Used: []uint64{0, 0}, NumPages: 3},
	"more free than pages":    {Suffix: []uint32{0, 1, 2}, Used: []uint64{0}, NumPages: 2},
	"too large":               {NumPages: 1<<32 + 1},

	"drawn past pages":               {Drawn: 4, RNG: validRNG, Used: []uint64{0}, NumPages: 3},
	"drawn and suffix past pages":    {Drawn: 2, Suffix: []uint32{2, 0}, RNG: validRNG, Used: []uint64{0}, NumPages: 3},
	"positions unsorted":             {Drawn: 3, Pos: []uint32{1, 0}, Val: []uint32{0, 1}, RNG: validRNG, Used: []uint64{0}, NumPages: 3},
	"position repeated":              {Drawn: 3, Pos: []uint32{1, 1}, Val: []uint32{2, 0}, RNG: validRNG, Used: []uint64{0}, NumPages: 3},
	"position past prefix":           {Drawn: 2, Pos: []uint32{2}, Val: []uint32{0}, RNG: validRNG, Used: []uint64{0}, NumPages: 3},
	"position restates identity":     {Drawn: 3, Pos: []uint32{1}, Val: []uint32{1}, RNG: validRNG, Used: []uint64{0}, NumPages: 3},
	"positions without frames":       {Drawn: 3, Pos: []uint32{1}, RNG: validRNG, Used: []uint64{0}, NumPages: 3},
	"overwritten frame out of range": {Drawn: 3, Pos: []uint32{1}, Val: []uint32{7}, RNG: validRNG, Used: []uint64{0}, NumPages: 3},
	"undrawn without stream":         {Drawn: 3, Used: []uint64{0}, NumPages: 3},
	"stream without undrawn":         {Suffix: []uint32{0}, RNG: validRNG, Used: []uint64{0}, NumPages: 3},
	"overwritten meets identity":     {Drawn: 3, Pos: []uint32{0}, Val: []uint32{1}, RNG: validRNG, Used: []uint64{0}, NumPages: 3},
	"overwritten meets suffix":       {Drawn: 2, Pos: []uint32{0}, Val: []uint32{2}, Suffix: []uint32{2}, RNG: validRNG, Used: []uint64{0}, NumPages: 3},
	"overwritten twice":              {Drawn: 2, Pos: []uint32{0, 1}, Val: []uint32{2, 2}, RNG: validRNG, Used: []uint64{0}, NumPages: 3},
	"identity meets suffix":          {Drawn: 2, Suffix: []uint32{1}, RNG: validRNG, Used: []uint64{0}, NumPages: 3},
	"identity and used":              {Drawn: 2, RNG: validRNG, Used: []uint64{1 << 0}, NumPages: 3},
	"overwritten and used":           {Drawn: 2, Pos: []uint32{0}, Val: []uint32{2}, RNG: validRNG, Used: []uint64{1 << 2}, NumPages: 3},
}

// rawGob gob-encodes as the bytes it holds, standing in for a GobEncoder
// whose bytes were corrupted on disk.
type rawGob []byte

func (r rawGob) GobEncode() ([]byte, error) { return r, nil }

// invalidRNGState is the lazy valid state with a shuffle stream whose tap
// index lies outside the generator's register: the allocator wire form
// with the stream's bytes substituted.
func invalidRNGState(t testing.TB) []byte {
	t.Helper()
	var rng bytes.Buffer
	if err := gob.NewEncoder(&rng).Encode(struct {
		Seed      int64
		Draws     uint64
		Tap, Feed int
		Vec       []int64
	}{Tap: 1 << 20, Vec: make([]int64, 607)}); err != nil {
		t.Fatal(err)
	}
	w := validAllocatorStates["lazy"]
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(struct {
		NumPages, Drawn  uint64
		Pos, Val, Suffix []uint32
		RNG              rawGob
		Used             []uint64
	}{w.NumPages, w.Drawn, w.Pos, w.Val, w.Suffix, rng.Bytes(), w.Used}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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
// fails the decode, and the hand-built valid ones pass.
func TestAllocatorStateGobDecodeRejectsCorrupt(t *testing.T) {
	for name, w := range validAllocatorStates {
		var ok AllocatorState
		if err := ok.GobDecode(encodeAllocatorStateGob(t, w)); err != nil {
			t.Fatalf("valid state %s rejected: %v", name, err)
		}
	}
	for name, w := range corruptAllocatorStates {
		var st AllocatorState
		if err := st.GobDecode(encodeAllocatorStateGob(t, w)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	var st AllocatorState
	if err := st.GobDecode(invalidRNGState(t)); err == nil || !strings.Contains(err.Error(), "register") {
		t.Errorf("invalid shuffle stream: decode error %v, want the RNG state's", err)
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
	for _, w := range validAllocatorStates {
		f.Add(encodeAllocatorStateGob(f, w))
	}
	for _, w := range corruptAllocatorStates {
		f.Add(encodeAllocatorStateGob(f, w))
	}
	f.Add(invalidRNGState(f))
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
