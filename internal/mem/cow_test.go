package mem

import (
	"slices"
	"testing"

	"repro/internal/sim"
)

// TestRestoreCopyOnWrite: a restored allocator shares the snapshot's free
// list until its first write, and no write path — AllocPage,
// AllocPageRandom, FreePage (whose append could reach the snapshot's spare
// capacity), AllocPages' rollback — touches a byte of the snapshot's
// backing array. Every path returns what the same operation on a private
// copy of the state (the gob-decoded disk form) returns.
func TestRestoreCopyOnWrite(t *testing.T) {
	const pages = 64
	src := NewAllocator(pages*PageSize, sim.NewRNG(1))
	held, err := src.AllocPages(8)
	if err != nil {
		t.Fatal(err)
	}
	// Spare capacity past the list: an append that reused it would write
	// into the snapshot without changing its visible length.
	st := src.Snapshot()
	st.free = append(make([]uint32, 0, 2*pages), st.free...)
	backing := slices.Clone(st.free[:cap(st.free)])
	unchanged := func(t *testing.T, when string) {
		t.Helper()
		if !slices.Equal(st.free[:cap(st.free)], backing) {
			t.Fatalf("%s: snapshot's free-list backing array changed", when)
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
			if !al.SharesFreeList() || &al.free[0] != &st.free[0] {
				t.Fatal("restore copied the free list")
			}
			ref := NewAllocatorShell(pages * PageSize)
			ref.Restore(gobCopy(t, st))
			ref.own()

			got, gotErr := op.run(al)
			want, wantErr := op.run(ref)
			if got != want || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("shared restore gave %#x, %v; private copy %#x, %v", got, gotErr, want, wantErr)
			}
			unchanged(t, op.name)
			if al.SharesFreeList() {
				t.Fatal("allocator still shares the snapshot's list after a write")
			}
			if !slices.Equal(al.Snapshot().free, ref.Snapshot().free) {
				t.Fatal("shared and private allocators diverged")
			}
		})
	}

	// Dropping the list leaves an allocator that can allocate nothing
	// until its next restore, which shares the snapshot again.
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
	if !al.SharesFreeList() || al.FreePages() != len(st.free) {
		t.Fatal("restore after a drop did not share the snapshot's list")
	}
	unchanged(t, "drop and restore")
}
