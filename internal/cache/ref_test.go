package cache

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
)

// TestReadRefMatchesRead drives twin caches through one random stream of
// loads, stores, DMA writes, flushes and idle time, under DDIO, the
// partition defense and DDIO off, at 4, 11 and 20 ways. One cache loads a
// fixed population of long-lived refs through ReadRef, the other loads the
// same addresses through Read; everything else reaches both caches by
// address. Every load must return the same (hit, latency), and the two
// caches must hold the same counters and snapshot after every op. The
// stream makes way hints stale on purpose: it moves a ref'd line to
// another way behind its ref's back (flush, refill the set, reload by
// address), and it restores older snapshots while the refs live on.
//
// A third cache, on a clock of its own, loads through refs of its own and
// also takes random walks over them through LoadWalk: indices drawn from a
// window of the refs, repeats included, so one walk both misses and hits.
// The twins take the same walk line by line, ReadRef (or Read) and then
// the clock advance. The walk's summed latency, the two clocks, the
// counters, the snapshots and every way hint must agree after every op.
func TestReadRefMatchesRead(t *testing.T) {
	for _, name := range []string{"ddio", "partition", "no-ddio"} {
		t.Run(name, func(t *testing.T) {
			for _, ways := range []int{4, 11, 20} {
				t.Run(fmt.Sprintf("%dway", ways), func(t *testing.T) {
					checkReadRefMatchesRead(t, name, ways)
				})
			}
		})
	}
}

func checkReadRefMatchesRead(t *testing.T, name string, ways int) {
	cfg := differentialConfig(name, ways)
	clock, walkClock := sim.NewClock(), sim.NewClock()
	viaRef, viaAddr, viaWalk := New(cfg, clock), New(cfg, clock), New(cfg, walkClock)
	all := []*Cache{viaRef, viaAddr, viaWalk}
	rng := sim.NewRNG(43)
	space := ways << 16 // eight lines per cached line, as in the reference test
	addrs := make([]uint64, 256)
	refs := make([]LineRef, len(addrs))
	walkRefs := make([]LineRef, len(addrs))
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(space))
		refs[i] = viaRef.Ref(addrs[i])
		walkRefs[i] = viaWalk.Ref(addrs[i])
	}
	var saved []*Snapshot
	var walk []int32
	var stale, staleWalks, restores, walkHits int
	for i := 0; i < 30000; i++ {
		k := rng.Intn(len(addrs))
		addr := addrs[k]
		if rng.Intn(2) == 0 {
			addr = uint64(rng.Intn(space))
		}
		switch op := rng.Intn(36); {
		case op < 16:
			r := &refs[k]
			if staleHint(viaRef, r) {
				stale++
			}
			gh, gl := viaRef.ReadRef(r)
			wh, wl := viaAddr.Read(addrs[k])
			if gh != wh || gl != wl {
				t.Fatalf("op %d: ReadRef(%#x) = (%v,%d), Read = (%v,%d)", i, addrs[k], gh, gl, wh, wl)
			}
			viaWalk.ReadRef(&walkRefs[k])
		case op < 20:
			gh, gl := viaRef.Read(addr)
			wh, wl := viaAddr.Read(addr)
			if gh != wh || gl != wl {
				t.Fatalf("op %d: Read(%#x) differs: (%v,%d) vs (%v,%d)", i, addr, gh, gl, wh, wl)
			}
			viaWalk.Read(addr)
		case op < 23:
			for _, c := range all {
				c.Write(addr)
			}
		case op < 27:
			for _, c := range all {
				c.IOWrite(addr)
			}
		case op < 28:
			for _, c := range all {
				c.Flush(addr)
			}
		case op < 30:
			// Move ref k's line behind its refs: flush it, refill part of
			// its set with other lines, and reload it by address.
			fill := AddrsInGlobalSet(cfg, viaAddr.globalSet(addrs[k]), 1+rng.Intn(ways), uint64(rng.Intn(1<<20)))
			for _, c := range all {
				c.Flush(addrs[k])
				for _, a := range fill {
					c.Read(a)
				}
				c.Read(addrs[k])
			}
		case op < 31:
			saved = []*Snapshot{viaRef.Snapshot(), viaAddr.Snapshot(), viaWalk.Snapshot()}
		case op < 32:
			if saved != nil {
				for j, c := range all {
					c.Restore(saved[j])
				}
				restores++
			}
		default:
			// A walk over a window of the refs, repeats included.
			lo, width := rng.Intn(len(addrs)), 1+rng.Intn(2*ways)
			walk = walk[:0]
			for n := 1 + rng.Intn(3*ways); len(walk) < n; {
				walk = append(walk, int32((lo+rng.Intn(width))%len(addrs)))
			}
			overhead := uint64(rng.Intn(8))
			var want uint64
			for _, j := range walk {
				if staleHint(viaWalk, &walkRefs[j]) {
					staleWalks++
				}
				gh, gl := viaRef.ReadRef(&refs[j])
				wh, wl := viaAddr.Read(addrs[j])
				if gh != wh || gl != wl {
					t.Fatalf("op %d: walk ReadRef(%#x) = (%v,%d), Read = (%v,%d)", i, addrs[j], gh, gl, wh, wl)
				}
				if gh {
					walkHits++
				}
				clock.Advance(gl + overhead)
				want += gl
			}
			if got := viaWalk.LoadWalk(walkRefs, walk, overhead); got != want {
				t.Fatalf("op %d: LoadWalk of %d lines = %d cycles, ReadRef per line %d", i, len(walk), got, want)
			}
		}
		// Mostly short gaps, occasionally one past the partition period.
		d := uint64(rng.Intn(300))
		if rng.Intn(64) == 0 {
			d = uint64(rng.Intn(400_000))
		}
		clock.Advance(d)
		walkClock.Advance(d)
		if clock.Now() != walkClock.Now() {
			t.Fatalf("op %d: clock %d after per-line loads, %d after LoadWalk", i, clock.Now(), walkClock.Now())
		}
		for j, c := range all[1:] {
			via := []string{"addresses", "walks"}[j]
			if viaRef.Stats() != c.Stats() {
				t.Fatalf("op %d: stats via refs %+v, via %s %+v", i, viaRef.Stats(), via, c.Stats())
			}
			if diff := diffSnapshots(view(viaRef), view(c)); diff != "" {
				t.Fatalf("op %d: snapshots via refs and via %s differ: %s", i, via, diff)
			}
		}
		for j := range refs {
			if refs[j] != walkRefs[j] {
				t.Fatalf("op %d: ref %d hints way %d after ReadRef, way %d after LoadWalk", i, j, refs[j].way, walkRefs[j].way)
			}
		}
	}
	if stale == 0 || staleWalks == 0 || restores == 0 || walkHits == 0 {
		t.Fatalf("stream loaded %d refs and walked %d through a stale way hint after %d restores, with %d walk hits; want all > 0",
			stale, staleWalks, restores, walkHits)
	}
	if name == "partition" && viaRef.Stats().BoundaryInvalidations == 0 {
		t.Fatal("stream never moved a partition boundary over a valid line")
	}
}

// staleHint reports a ref whose line is cached in another way than its
// hint names.
func staleHint(c *Cache, r *LineRef) bool {
	meta, _ := c.setWays(r.set)
	w := lookup(meta, r.key)
	return w >= 0 && w != r.way
}

// view is a snapshot of c that shares c's arrays instead of copying them,
// for comparing caches after every op.
func view(c *Cache) *Snapshot {
	return &Snapshot{geometry: c.geo, meta: c.meta, stamp: c.stamp, pstate: c.pstate, nextID: c.nextID, stats: c.stats}
}

// diffSnapshots reports the first difference between two snapshots.
func diffSnapshots(a, b *Snapshot) string {
	switch {
	case a.geometry != b.geometry:
		return fmt.Sprintf("geometry %q vs %q", a.geometry, b.geometry)
	case a.nextID != b.nextID:
		return fmt.Sprintf("nextID %d vs %d", a.nextID, b.nextID)
	case a.stats != b.stats:
		return fmt.Sprintf("stats %+v vs %+v", a.stats, b.stats)
	case !slices.Equal(a.meta, b.meta):
		return "line meta words"
	case !slices.Equal(a.stamp, b.stamp):
		return "line stamps"
	case !slices.Equal(a.pstate, b.pstate):
		return "partition state"
	}
	return ""
}
