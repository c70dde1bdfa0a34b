package mem

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/sim"
)

// TestRestoreCopyOnWrite: a restored allocator reads through its state
// until the first write materializes a list of its own, and no write path
// — AllocPage, AllocPageRandom, FreePage (whose append could reach the
// suffix's spare capacity were the suffix the list), AllocPages' rollback
// — touches a byte of the state. Every path returns what the same
// operation on an allocator that materialized the gob-decoded state up
// front returns.
func TestRestoreCopyOnWrite(t *testing.T) {
	const pages = 64
	src := NewAllocator(pages*PageSize, sim.NewRNG(1))
	held, err := src.AllocPages(8)
	if err != nil {
		t.Fatal(err)
	}
	// Spare capacity past the suffix: an append that reused it would
	// write into the state without changing its visible length.
	st := src.Snapshot()
	st.suffix = append(make([]uint32, 0, 2*pages), st.suffix...)
	backing := slices.Clone(st.suffix[:cap(st.suffix)])
	wire, err := st.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	unchanged := func(t *testing.T, when string) {
		t.Helper()
		enc, err := st.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, wire) || !slices.Equal(st.suffix[:cap(st.suffix)], backing) {
			t.Fatalf("%s: the restored state changed", when)
		}
	}

	ops := []struct {
		name string
		run  func(al *Allocator) (Addr, error)
	}{
		{"AllocPage", func(al *Allocator) (Addr, error) { return al.AllocPage() }},
		{"AllocPageRandom", func(al *Allocator) (Addr, error) { return al.AllocPageRandom(sim.NewRNG(2)) }},
		{"FreePage", func(al *Allocator) (Addr, error) { al.FreePage(held[3]); return 0, nil }},
		{"AllocPagesRollback", func(al *Allocator) (Addr, error) {
			_, err := al.AllocPages(pages)
			if err == nil {
				t.Fatal("AllocPages beyond the free list succeeded")
			}
			return 0, nil
		}},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			al := NewAllocatorShell(pages * PageSize)
			al.Restore(st)
			if !al.SharesFreeList() || len(al.free) != 0 || al.Snapshot() != st {
				t.Fatal("restore materialized the free list")
			}
			ref := NewAllocatorShell(pages * PageSize)
			ref.Restore(gobCopy(t, st))
			ref.own()

			got, gotErr := op.run(al)
			want, wantErr := op.run(ref)
			if got != want || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("restored state gave %#x, %v; materialized copy %#x, %v", got, gotErr, want, wantErr)
			}
			unchanged(t, op.name)
			if al.SharesFreeList() {
				t.Fatal("allocator still reads through the state after a write")
			}
			if !slices.Equal(drawnList(al.Snapshot()), drawnList(ref.Snapshot())) {
				t.Fatal("restored and materialized allocators diverged")
			}
		})
	}

	// Dropping the list leaves an allocator that can allocate nothing
	// until its next restore, which reads through the state again.
	al := NewAllocatorShell(pages * PageSize)
	al.Restore(st)
	if _, err := al.AllocPage(); err != nil {
		t.Fatal(err)
	}
	al.DropFreeList()
	if al.FreePages() != 0 || al.SharesFreeList() {
		t.Fatalf("dropped allocator holds %d free pages (shared=%v)", al.FreePages(), al.SharesFreeList())
	}
	if _, err := al.AllocPage(); err == nil {
		t.Fatal("allocation from a dropped free list succeeded")
	}
	al.Restore(st)
	if !al.SharesFreeList() || al.FreePages() != pages-len(held) {
		t.Fatal("restore after a drop did not read through the state")
	}
	unchanged(t, "drop and restore")
}
