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
	clock := sim.NewClock()
	viaRef, viaAddr := New(cfg, clock), New(cfg, clock)
	rng := sim.NewRNG(43)
	space := ways << 16 // eight lines per cached line, as in the reference test
	addrs := make([]uint64, 256)
	refs := make([]LineRef, len(addrs))
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(space))
		refs[i] = viaRef.Ref(addrs[i])
	}
	var savedRef, savedAddr *Snapshot
	var stale, restores int
	for i := 0; i < 30000; i++ {
		k := rng.Intn(len(addrs))
		addr := addrs[k]
		if rng.Intn(2) == 0 {
			addr = uint64(rng.Intn(space))
		}
		switch op := rng.Intn(32); {
		case op < 16:
			r := &refs[k]
			meta, _ := viaRef.setWays(r.set)
			if w := lookup(meta, r.key); w >= 0 && w != r.way {
				stale++
			}
			gh, gl := viaRef.ReadRef(r)
			wh, wl := viaAddr.Read(addrs[k])
			if gh != wh || gl != wl {
				t.Fatalf("op %d: ReadRef(%#x) = (%v,%d), Read = (%v,%d)", i, addrs[k], gh, gl, wh, wl)
			}
		case op < 20:
			gh, gl := viaRef.Read(addr)
			wh, wl := viaAddr.Read(addr)
			if gh != wh || gl != wl {
				t.Fatalf("op %d: Read(%#x) differs: (%v,%d) vs (%v,%d)", i, addr, gh, gl, wh, wl)
			}
		case op < 23:
			viaRef.Write(addr)
			viaAddr.Write(addr)
		case op < 27:
			viaRef.IOWrite(addr)
			viaAddr.IOWrite(addr)
		case op < 28:
			viaRef.Flush(addr)
			viaAddr.Flush(addr)
		case op < 30:
			// Move ref k's line behind its ref: flush it, refill part of
			// its set with other lines, and reload it by address.
			fill := AddrsInGlobalSet(cfg, viaAddr.globalSet(addrs[k]), 1+rng.Intn(ways), uint64(rng.Intn(1<<20)))
			for _, c := range []*Cache{viaRef, viaAddr} {
				c.Flush(addrs[k])
				for _, a := range fill {
					c.Read(a)
				}
				c.Read(addrs[k])
			}
		case op < 31:
			savedRef, savedAddr = viaRef.Snapshot(), viaAddr.Snapshot()
		default:
			if savedRef != nil {
				viaRef.Restore(savedRef)
				viaAddr.Restore(savedAddr)
				restores++
			}
		}
		// Mostly short gaps, occasionally one past the partition period.
		d := uint64(rng.Intn(300))
		if rng.Intn(64) == 0 {
			d = uint64(rng.Intn(400_000))
		}
		clock.Advance(d)
		if viaRef.Stats() != viaAddr.Stats() {
			t.Fatalf("op %d: stats via refs %+v, via addresses %+v", i, viaRef.Stats(), viaAddr.Stats())
		}
		if diff := diffSnapshots(viaRef.Snapshot(), viaAddr.Snapshot()); diff != "" {
			t.Fatalf("op %d: snapshots differ: %s", i, diff)
		}
	}
	if stale == 0 || restores == 0 {
		t.Fatalf("stream loaded %d refs through a stale way hint after %d restores; want both > 0", stale, restores)
	}
	if name == "partition" && viaRef.Stats().BoundaryInvalidations == 0 {
		t.Fatal("stream never moved a partition boundary over a valid line")
	}
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
