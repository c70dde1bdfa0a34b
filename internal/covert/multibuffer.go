package covert

import (
	"fmt"
	"sort"

	"repro/internal/netmodel"
	"repro/internal/probe"
	"repro/internal/sim"
)

// selectSpacedBuffers picks n group ids from the recovered ring that are
// roughly ringLen/n positions apart and isolated (each set hosts exactly
// one ring buffer). It returns the chosen group ids in ring order.
func selectSpacedBuffers(ring []int, n int) ([]int, error) {
	isolated := isolatedPositions(ring)
	if len(isolated) < n {
		return nil, fmt.Errorf("covert: only %d isolated buffers for %d sections", len(isolated), n)
	}
	// Greedy: for each ideal position, take the nearest unused isolated
	// buffer.
	used := make(map[int]bool)
	var out []int
	for k := 0; k < n; k++ {
		ideal := k * len(ring) / n
		best, bestDist := -1, len(ring)
		for i, pos := range isolated {
			if used[i] {
				continue
			}
			d := pos - ideal
			if d < 0 {
				d = -d
			}
			if wrap := len(ring) - d; wrap < d {
				d = wrap
			}
			if d < bestDist {
				best, bestDist = i, d
			}
		}
		used[best] = true
		out = append(out, isolated[best])
	}
	sort.Ints(out)
	ids := make([]int, n)
	for i, pos := range out {
		ids[i] = ring[pos]
	}
	return ids, nil
}

// RunMultiBuffer executes a complete n-buffer transmission (§IV-c): the
// ring is divided into n sections by n monitored buffers that are ideally
// len(ring)/n apart, and the trojan sends one symbol per section,
// multiplying the bandwidth by n (Fig 12a).
func RunMultiBuffer(spy *probe.Spy, groups []probe.EvictionSet, ring []int, nBuffers int, symbols []int, enc Encoding, probeRate float64) (Result, error) {
	selected, err := selectSpacedBuffers(ring, nBuffers)
	if err != nil {
		return Result{}, err
	}
	perSym := max(len(ring)/nBuffers, 1)
	burst := BurstWireTime(perSym, netmodel.GigabitRate)
	return transmit(spy, groups, selected, symbols, enc, perSym, burst+burst/2, sim.CyclesPerSecond(probeRate))
}
