// Package mem models the machine's physical address space and the two views
// the Packet Chasing attack cares about: the kernel page allocator that
// hands the NIC driver its rx-ring buffer pages, and the virtual mappings a
// user-space spy process obtains for building eviction sets.
//
// Only addresses are modeled, never data contents — the attack observes
// cache-set occupancy, not payload bytes. Physical frame numbers are handed
// out in a randomized order, which is what makes the buffer-to-cache-set
// mapping non-uniform (paper Figs 5 and 6): each 4 KB page lands on one of
// 256 page-aligned set groups essentially uniformly at random, so the
// number of ring buffers per group follows a birthday-style distribution.
package mem

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"

	"repro/internal/sim"
)

// PageSize is the system page size. The IGB driver packs two 2 KB rx
// buffers into each 4 KB page (paper §III-A).
const PageSize = 4096

// LineSize is the cache line size; buffer sizes and packet sizes are
// expressed in 64-byte blocks throughout the paper.
const LineSize = 64

// maxPages bounds an allocator's size: free-list entries are uint32 frame
// numbers.
const maxPages = 1 << 32

// Addr is a physical byte address.
type Addr uint64

// PageAligned reports whether a sits on a page boundary.
func (a Addr) PageAligned() bool { return a%PageSize == 0 }

// Line returns the address of the cache line containing a.
func (a Addr) Line() Addr { return a &^ (LineSize - 1) }

// Page returns the address of the page containing a.
func (a Addr) Page() Addr { return a &^ (PageSize - 1) }

// Allocator is a physical page allocator. Frames are issued in a seeded
// pseudo-random order to model the state of a long-running kernel buddy
// allocator; sequential physical allocation would (unrealistically) give
// the driver a perfectly uniform buffer-to-set mapping.
//
// The order is the stdlib Fisher–Yates shuffle of all frames, drawn
// lazily. Shuffle fixes position n−1 first and walks down, and AllocPage
// pops from the tail, so position i needs its draw only when the free list
// first shrinks to i+1. Every operation touches the free list at or above
// drawn, so the prefix below it is exactly the half-shuffled list the
// eager shuffle would have seen there, and drawing it later yields the
// same frames. A machine that allocates k pages therefore draws about k
// positions instead of all of them, and Snapshot keeps it that way: a
// state holds the undrawn prefix as the positions the draws overwrote
// (see AllocatorState), so it draws nothing and copies no full list.
//
// A restored free list is materialized on first write: Restore only
// points the allocator at the state, and the first AllocPage,
// AllocPageRandom or FreePage writes identity, the overwritten prefix
// positions and the drawn suffix into the allocator's own buffer, then
// keeps drawing from the restored shuffle stream. A cloned 1 GiB machine
// thus holds no 1 MiB list of its own until it allocates, which online
// only the ring-randomization defense does.
type Allocator struct {
	// free holds the free frame numbers, consumed from the tail.
	// free[drawn:] holds final positions; free[:drawn] the shuffle's
	// undrawn prefix. It is not materialized while st is set.
	free []uint32
	// st is the restored state free still reads through: Restore sets
	// it, the first write materializes it into free and clears it, and
	// Snapshot returns it while it is set.
	st *AllocatorState
	// used is a frame-number bitset: snapshots and restores copy it with
	// a memcpy, one word per 64 frames.
	used     []uint64
	numPages uint64
	drawn    int
	// rng is the shuffle stream; the allocator owns it, and draws only
	// while drawn > 0.
	rng *sim.RNG
}

// newPages validates an allocator size and returns its page count.
func newPages(totalBytes uint64) uint64 {
	n := totalBytes / PageSize
	if n == 0 {
		panic("mem: allocator needs at least one page")
	}
	if n > maxPages {
		panic(fmt.Sprintf("mem: %d pages exceed the %d-page limit", n, uint64(maxPages)))
	}
	return n
}

// NewAllocator creates an allocator over totalBytes of physical memory,
// its frame order shuffled by rng. The allocator takes ownership of rng
// and draws from it as allocations reach undrawn positions (see
// Allocator), so the caller must pass a stream nothing else uses.
func NewAllocator(totalBytes uint64, rng *sim.RNG) *Allocator {
	al := NewAllocatorShell(totalBytes)
	al.Reset(rng)
	return al
}

// Reset returns the allocator to the state NewAllocator(TotalPages()*
// PageSize, rng) builds — every frame free, none drawn — reusing its
// buffers, and takes ownership of rng as NewAllocator does.
func (al *Allocator) Reset(rng *sim.RNG) {
	n := int(al.numPages)
	al.free = slices.Grow(al.free[:0], n)[:n]
	for i := range al.free {
		al.free[i] = uint32(i)
	}
	clear(al.used)
	al.st, al.drawn, al.rng = nil, n, rng
}

// TotalPages returns the number of physical pages.
func (al *Allocator) TotalPages() uint64 { return al.numPages }

// FreePages returns the number of currently free pages.
func (al *Allocator) FreePages() int {
	if al.st != nil {
		return al.st.drawn + len(al.st.suffix)
	}
	return len(al.free)
}

// NewAllocatorShell creates an allocator over totalBytes with no free
// pages and no RNG — a restore target, or one for Reset. Restore installs
// the snapshot's free list, order and shuffle stream included. A shell
// that is neither restored nor reset cannot allocate (every AllocPage
// fails).
func NewAllocatorShell(totalBytes uint64) *Allocator {
	n := newPages(totalBytes)
	return &Allocator{used: make([]uint64, (n+63)/64), numPages: n}
}

// drawTo draws the shuffle down to position i, making free[i:] final.
func (al *Allocator) drawTo(i int) {
	for al.drawn > i {
		p := al.drawn - 1
		if p > 0 {
			j := al.rng.ShuffleStep(p)
			al.free[p], al.free[j] = al.free[j], al.free[p]
		}
		al.drawn = p
	}
}

// AllocatorState is an allocator's free/used bookkeeping in the lazy
// form the allocator holds it in, taken by Snapshot and reapplied by
// Restore. The free list order is part of the state: it determines every
// future allocation. The list is free[:drawn] followed by suffix, where
// the undrawn prefix free[:drawn] is the identity except at the
// positions pos, which hold val (sorted by position, at most one per
// draw: each draw overwrites one prefix position). rng is the shuffle
// stream that draws the prefix, set exactly when drawn > 0.
type AllocatorState struct {
	drawn    int
	pos, val []uint32
	suffix   []uint32
	rng      *sim.RNGState
	used     []uint64 // frame-number bitset, like Allocator.used
	numPages uint64
}

// Snapshot captures the allocator's state without drawing: the prefix
// positions that differ from the identity, the drawn suffix, the shuffle
// stream and the used bitset. An allocator that has not written since its
// Restore returns the state it was restored from. The returned value is
// immutable and safe to restore into any allocator built over the same
// memory size.
func (al *Allocator) Snapshot() *AllocatorState {
	if al.st != nil {
		return al.st
	}
	st := &AllocatorState{
		drawn:    al.drawn,
		suffix:   append([]uint32(nil), al.free[al.drawn:]...),
		used:     slices.Clone(al.used),
		numPages: al.numPages,
	}
	moved := 0
	for i, v := range al.free[:al.drawn] {
		if v != uint32(i) {
			moved++
		}
	}
	if moved > 0 {
		st.pos, st.val = make([]uint32, 0, moved), make([]uint32, 0, moved)
		for i, v := range al.free[:al.drawn] {
			if v != uint32(i) {
				st.pos, st.val = append(st.pos, uint32(i)), append(st.val, v)
			}
		}
	}
	if al.drawn > 0 {
		rng := al.rng.Snapshot()
		st.rng = &rng
	}
	return st
}

// Fits reports why the state cannot be restored into an allocator over
// totalBytes, or nil if it can (Restore panics on another page count).
func (st *AllocatorState) Fits(totalBytes uint64) error {
	if n := totalBytes / PageSize; st.numPages != n {
		return fmt.Errorf("mem: state of %d pages, want %d", st.numPages, n)
	}
	return nil
}

// allocatorStateGob mirrors AllocatorState with exported fields for the
// disk-backed artifact store: the lazy free list as memory holds it (it
// determines every future allocation) and the used bitset words.
type allocatorStateGob struct {
	NumPages uint64
	Drawn    uint64
	Pos, Val []uint32
	Suffix   []uint32
	RNG      *sim.RNGState
	Used     []uint64
}

// GobEncode serializes the allocator state (disk-backed warm starts).
func (st *AllocatorState) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(allocatorStateGob{
		NumPages: st.numPages, Drawn: uint64(st.drawn), Pos: st.pos, Val: st.val,
		Suffix: st.suffix, RNG: st.rng, Used: st.used,
	})
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode rebuilds allocator state from its serialized form. Input that
// no allocator could have produced is an error, so a corrupt disk artifact
// misses the cache instead of panicking here or in Restore, or handing
// out one frame twice: a bitset of the wrong length or with a frame past
// the end marked used; more free frames than pages; prefix positions
// unsorted, repeated, past the undrawn prefix or restating the identity;
// a frame out of range; a shuffle stream missing while positions are
// undrawn, present when none are, or invalid; and a free frame — implicit
// in the prefix, overwritten into it, or in the suffix — listed twice or
// also used.
func (st *AllocatorState) GobDecode(b []byte) error {
	var w allocatorStateGob
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return err
	}
	n := w.NumPages
	if n > maxPages {
		return fmt.Errorf("mem: allocator state of %d pages exceeds the %d-page limit", n, uint64(maxPages))
	}
	if w.Drawn > n || uint64(len(w.Suffix)) > n-w.Drawn {
		return fmt.Errorf("mem: allocator state lists %d+%d free frames of %d", w.Drawn, len(w.Suffix), n)
	}
	words := (n + 63) / 64
	if uint64(len(w.Used)) != words {
		return fmt.Errorf("mem: used bitset of %d words for %d pages, want %d", len(w.Used), n, words)
	}
	if tail := n % 64; tail != 0 && w.Used[words-1]>>tail != 0 {
		return fmt.Errorf("mem: used bitset marks frames past page %d", n)
	}
	if (w.Drawn > 0) != (w.RNG != nil) {
		return fmt.Errorf("mem: shuffle stream present=%v with %d undrawn positions", w.RNG != nil, w.Drawn)
	}
	if len(w.Pos) != len(w.Val) {
		return fmt.Errorf("mem: %d prefix positions with %d frames", len(w.Pos), len(w.Val))
	}
	// ident marks the prefix positions that hold their own frame.
	ident := make([]uint64, words)
	for i := uint64(0); i < w.Drawn/64; i++ {
		ident[i] = ^uint64(0)
	}
	if r := w.Drawn % 64; r != 0 {
		ident[w.Drawn/64] = 1<<r - 1
	}
	for k, p := range w.Pos {
		if uint64(p) >= w.Drawn || k > 0 && p <= w.Pos[k-1] || w.Val[k] == p {
			return fmt.Errorf("mem: prefix position %d unsorted, repeated, past %d undrawn or holding its own frame", p, w.Drawn)
		}
		ident[p/64] &^= 1 << (p % 64)
	}
	seen := make([]uint64, words)
	for _, list := range [][]uint32{w.Val, w.Suffix} {
		for _, pfn := range list {
			if uint64(pfn) >= n {
				return fmt.Errorf("mem: free frame %d out of range (%d pages)", pfn, n)
			}
			bit := uint64(1) << (pfn % 64)
			if (w.Used[pfn/64]|seen[pfn/64])&bit != 0 {
				return fmt.Errorf("mem: free frame %d listed twice or also used", pfn)
			}
			seen[pfn/64] |= bit
		}
	}
	for i, m := range ident {
		if m&(w.Used[i]|seen[i]) != 0 {
			return fmt.Errorf("mem: an undrawn frame near %d is listed twice or also used", 64*i)
		}
	}
	*st = AllocatorState{drawn: int(w.Drawn), pos: w.Pos, val: w.Val, suffix: w.Suffix, rng: w.RNG, used: w.Used, numPages: n}
	return nil
}

// Restore overwrites the allocator's state from a snapshot. It panics on a
// memory-size mismatch (snapshots never move between machine shapes). The
// free list is not materialized: the allocator reads through the state,
// which is immutable, until its first write (see Allocator). The used
// bitset and the shuffle stream are copied into the allocator's own, so
// repeated restores — the rig-pool lease path runs one per warm trial —
// allocate nothing once the allocator holds a stream.
func (al *Allocator) Restore(st *AllocatorState) {
	if st.numPages != al.numPages {
		panic(fmt.Sprintf("mem: restoring %d-page snapshot into %d-page allocator", st.numPages, al.numPages))
	}
	al.st, al.free, al.drawn = st, al.free[:0], st.drawn
	al.used = append(al.used[:0], st.used...)
	if st.rng != nil {
		if al.rng == nil {
			al.rng = sim.NewRNG(0)
		}
		al.rng.Restore(st.rng)
	}
}

// SharesFreeList reports whether the free list is still a restored
// state's, not yet materialized by a write (see Allocator).
func (al *Allocator) SharesFreeList() bool { return al.st != nil }

// DropFreeList empties the free list, whether a restored state's or a
// materialized one, so an idle allocator pins no snapshot and holds no
// list. The allocator can allocate again only after its next Restore.
func (al *Allocator) DropFreeList() {
	al.free, al.st, al.drawn = nil, nil, 0
}

// own materializes a restored state's free list into the allocator's own
// buffer before its first write: the identity prefix, the positions the
// draws overwrote, then the drawn suffix.
func (al *Allocator) own() {
	st := al.st
	if st == nil {
		return
	}
	n := st.drawn + len(st.suffix)
	free := slices.Grow(al.free[:0], n)[:n]
	for i := range free[:st.drawn] {
		free[i] = uint32(i)
	}
	for k, p := range st.pos {
		free[p] = st.val[k]
	}
	copy(free[st.drawn:], st.suffix)
	al.free, al.st = free, nil
}

// take removes the drawn free-list entry at position i, moving the tail
// into its place, and marks its frame used.
func (al *Allocator) take(i int) Addr {
	last := len(al.free) - 1
	pfn := uint64(al.free[i])
	al.free[i] = al.free[last]
	al.free = al.free[:last]
	al.used[pfn/64] |= 1 << (pfn % 64)
	return Addr(pfn * PageSize)
}

// AllocPage returns the base address of a newly allocated physical page.
func (al *Allocator) AllocPage() (Addr, error) {
	if al.FreePages() == 0 {
		return 0, fmt.Errorf("mem: out of physical pages (%d total)", al.numPages)
	}
	al.own()
	last := len(al.free) - 1
	al.drawTo(last)
	return al.take(last), nil
}

// AllocPageRandom returns a page drawn uniformly from the free list. The
// plain AllocPage is effectively LIFO once pages cycle (like a real buddy
// allocator preferring cache-hot pages), which would quietly defeat the
// §VI-b ring-randomization defense: a "fresh" buffer would land on the
// page just vacated. Randomized placement is the point of that defense,
// so it allocates through this method.
func (al *Allocator) AllocPageRandom(rng *sim.RNG) (Addr, error) {
	if al.FreePages() == 0 {
		return 0, fmt.Errorf("mem: out of physical pages (%d total)", al.numPages)
	}
	al.own()
	i := rng.Intn(len(al.free))
	al.drawTo(i)
	return al.take(i), nil
}

// AllocPages allocates n pages, returning their base addresses.
func (al *Allocator) AllocPages(n int) ([]Addr, error) {
	out := make([]Addr, 0, n)
	for i := 0; i < n; i++ {
		a, err := al.AllocPage()
		if err != nil {
			// Roll back partial allocation.
			for _, p := range out {
				al.FreePage(p)
			}
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// FreePage returns a page to the allocator. Freeing an unallocated or
// unaligned address panics: both indicate a driver-model bug.
func (al *Allocator) FreePage(a Addr) {
	if !a.PageAligned() {
		panic(fmt.Sprintf("mem: freeing unaligned address %#x", uint64(a)))
	}
	pfn := uint64(a) / PageSize
	bit := uint64(1) << (pfn % 64)
	if pfn >= al.numPages || al.used[pfn/64]&bit == 0 {
		panic(fmt.Sprintf("mem: double free of frame %d", pfn))
	}
	al.used[pfn/64] &^= bit
	al.own()
	al.free = append(al.free, uint32(pfn))
}

// Region is a contiguous virtual mapping owned by the spy process. The spy
// addresses it by offset; the physical frames backing it are known to the
// simulator but are deliberately not exposed through the methods the attack
// code uses — the attack must discover conflicts through timing, exactly as
// on real hardware where user space cannot read /proc/self/pagemap without
// privileges.
type Region struct {
	pages []Addr
}

// NewRegion maps n pages of fresh physical memory.
func NewRegion(al *Allocator, n int) (*Region, error) {
	pages, err := al.AllocPages(n)
	if err != nil {
		return nil, err
	}
	return &Region{pages: pages}, nil
}

// SetPages re-points a region at frames that are already allocated — the
// warm-start path, where a restored allocator snapshot records the spy's
// pages as used and the region must be re-attached rather than
// re-allocated. The page list is copied into the region's reused backing
// array, so a spy's region survives across rig-pool leases without
// allocating.
func (r *Region) SetPages(pages []Addr) {
	r.pages = append(r.pages[:0], pages...)
}

// PageAddrs returns the physical base addresses of the region's pages, in
// mapping order (snapshot support; attack code never reads this).
func (r *Region) PageAddrs() []Addr {
	return append([]Addr(nil), r.pages...)
}

// Size returns the region size in bytes.
func (r *Region) Size() uint64 { return uint64(len(r.pages)) * PageSize }

// Pages returns the number of mapped pages.
func (r *Region) Pages() int { return len(r.pages) }

// Translate converts a virtual offset within the region to the backing
// physical address. This is the MMU's job; the spy never calls it directly,
// it is used by the cache model when the spy touches memory.
func (r *Region) Translate(off uint64) Addr {
	pageIdx := off / PageSize
	if pageIdx >= uint64(len(r.pages)) {
		panic(fmt.Sprintf("mem: offset %#x beyond region of %d pages", off, len(r.pages)))
	}
	return r.pages[pageIdx] + Addr(off%PageSize)
}

// Release returns all backing frames to the allocator.
func (r *Region) Release(al *Allocator) {
	for _, p := range r.pages {
		al.FreePage(p)
	}
	r.pages = nil
}
