package probe

import (
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/mem"
)

// EvictionSet is a minimal set of spy addresses that maps to one cache set:
// accessing all of them replaces every line in that set. ID is an
// attacker-local label; the attacker has no way to know which physical
// (slice, set) pair a group corresponds to, and never needs to.
type EvictionSet struct {
	ID int
	// Lines are the probe addresses (one per way).
	Lines []uint64
	// Members are all spy pages discovered to be co-mapped with this set
	// (superset of Lines' pages); kept for diagnostics.
	Members []uint64
}

// CopyEvictionSetsInto deep-copies src over dst, reusing dst's backing
// slices (outer and per-set inner) wherever they are large enough. It is
// the rig-pool counterpart of the clone the warm-start path used to build
// per trial: a pooled rig's eviction sets are overwritten in place on each
// lease, allocation-free once the buffers have grown to size. The result
// aliases nothing in src.
func CopyEvictionSetsInto(dst []EvictionSet, src []EvictionSet) []EvictionSet {
	if cap(dst) < len(src) {
		dst = make([]EvictionSet, len(src))
	}
	dst = dst[:len(src)]
	for i := range src {
		dst[i].ID = src[i].ID
		dst[i].Lines = append(dst[i].Lines[:0], src[i].Lines...)
		dst[i].Members = append(dst[i].Members[:0], src[i].Members...)
	}
	return dst
}

// Offset returns the eviction set for the k-th cache block of the same
// pages: every line shifted by k*64 bytes. For page-aligned bases and
// k < 64 the shift flips only low set-index bits, which changes the slice
// hash by a constant, so co-mapped addresses stay co-mapped — this is why
// the paper can monitor "the second cache blocks in the pages" with the
// same 256-group structure (§III-B).
func (e EvictionSet) Offset(k int) EvictionSet {
	if k == 0 {
		return e
	}
	off := uint64(k * 64)
	if off >= mem.PageSize {
		panic(fmt.Sprintf("probe: block offset %d beyond page", k))
	}
	lines := make([]uint64, len(e.Lines))
	for i, a := range e.Lines {
		lines[i] = a + off
	}
	return EvictionSet{ID: e.ID, Lines: lines, Members: e.Members}
}

// BuildAlignedEvictionSets discovers the page-aligned conflict groups of
// the spy's buffer by pure conflict testing and returns one eviction set
// per group found. ways is the cache associativity (a published part
// number, known to any attacker).
//
// The algorithm is the standard group-testing construction: pick a victim
// page, check the rest of the pool can evict it, reduce the pool to a
// minimal ways-sized eviction set by group elimination, then sweep the
// pool for every other page the minimal set evicts — those form one
// conflict group. Repeat until the pool is exhausted.
//
// Every page is resolved into a line ref once; the pool and its reductions
// are index slices into that one array, so each page keeps its way hint
// across the thousands of conflict tests it takes part in.
func (s *Spy) BuildAlignedEvictionSets(ways int) ([]EvictionSet, error) {
	if ways <= 0 {
		return nil, fmt.Errorf("probe: ways must be positive")
	}
	n := s.region.Pages()
	refs := make([]cache.LineRef, n)
	pool := make([]int32, n)
	for i := range refs {
		refs[i] = s.cache.Ref(s.PageBase(i))
		pool[i] = int32(i)
	}
	// Every page joins at most one group's Lines, so one backing array
	// holds them all.
	lines := make([]uint64, 0, n)
	// reduce's two work buffers, reused by every victim. Its result
	// aliases one of them and is read only until the next victim's reduce.
	bufA, bufB := make([]int32, 0, n), make([]int32, 0, n)
	var groups []EvictionSet
	for len(pool) > ways {
		// rest aliases the pool: reduce works on its own copy, and the
		// pool changes only once this victim is settled.
		victim, rest := pool[0], pool[1:]
		if !s.conflict(refs, rest, victim) {
			// Not enough co-mapped pages remain for this victim's set;
			// set it aside and move on.
			pool = pool[1:]
			continue
		}
		minimal := s.reduce(refs, rest, victim, ways, bufA, bufB)
		if len(minimal) != ways || !s.conflict(refs, minimal, victim) {
			pool = pool[1:]
			continue
		}
		from := len(lines)
		for _, i := range minimal {
			lines = append(lines, s.PageBase(int(i)))
		}
		group := EvictionSet{ID: len(groups), Lines: lines[from:len(lines):len(lines)]}
		group.Members = append(group.Members, s.PageBase(int(victim)))
		next := pool[:0]
		for _, y := range pool[1:] {
			switch {
			case slices.Contains(minimal, y), s.conflict(refs, minimal, y):
				group.Members = append(group.Members, s.PageBase(int(y)))
			default:
				next = append(next, y)
			}
		}
		pool = next
		groups = append(groups, group)
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("probe: no conflict groups found with %d pages; map more memory", s.region.Pages())
	}
	return groups, nil
}

// reduce shrinks candidates to a minimal eviction set for victim using
// group elimination: repeatedly split into ways+1 chunks and drop any
// chunk whose removal still leaves the victim evicted. Pages are indices
// into refs, as in BuildAlignedEvictionSets.
//
// work and spare are scratch buffers with disjoint backing arrays: work
// starts as a copy of candidates, each trial removal is built in spare,
// and a kept removal swaps the two, so no chunk test allocates. The
// returned set aliases one of the buffers.
func (s *Spy) reduce(refs []cache.LineRef, candidates []int32, victim int32, ways int, work, spare []int32) []int32 {
	work = append(work[:0], candidates...)
	for len(work) > ways {
		// Split into exactly ways+1 chunks: at most ways elements are
		// needed, so by pigeonhole at least one chunk is disposable.
		removed := false
		for g := 0; g <= ways; g++ {
			lo := g * len(work) / (ways + 1)
			hi := (g + 1) * len(work) / (ways + 1)
			if lo == hi {
				continue
			}
			rest := append(append(spare[:0], work[:lo]...), work[hi:]...)
			if s.conflict(refs, rest, victim) {
				work, spare = rest, work
				removed = true
				break
			}
		}
		if !removed {
			break
		}
	}
	return work
}
