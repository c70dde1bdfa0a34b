package main

import (
	"sort"
	"sync"
)

// The benchmark's reference host is a shared 2-vCPU virtual machine whose
// speed drifts within minutes: twenty repetitions of one sweep at one seed
// spread 15-20% (interquartile range over median), in user time as much
// as in wall time. So every time a run reports is scaled by a host-speed
// reference, sampled before the run's first child and after each child:
// by refNominal over the median of the run's samples, since one sample is
// too short to tell drift from its own noise. The reference is a
// miniature of the simulator's hot loop, an 8-way LRU set-associative
// cache model driven by a fixed address stream, run on both vCPUs at once.
// The benchmark owns it, so no change to the repository can move it. On
// the reference host scaled times read as plain seconds. Raw times are
// reported beside them: the reference tracks only part of the drift.

// refNominal is one reference unit's duration on the reference host, a
// 2-vCPU Intel Xeon VM: the speed every scaled time is expressed at.
const refNominal = 0.04

const (
	refSets = 4096 // 32k lines: the model's state fits in L2, like the simulator's
	refWays = 8
)

// refModel is one reference cache: tags and LRU stamps per way.
type refModel struct {
	tags, stamps []uint64
}

// run drives the model with a fixed xorshift address stream over a 64 MiB
// range, mostly misses, as PRIME+PROBE traffic is.
func (m *refModel) run() {
	x, now := uint64(88172645463325252), uint64(0)
	for i := 0; i < 1<<20; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		addr := x & (1<<26 - 1)
		base := (int(addr>>6) & (refSets - 1)) * refWays
		tag := addr>>18 + 1
		tags, stamps := m.tags[base:base+refWays], m.stamps[base:base+refWays]
		now++
		victim := 0
		for w := range tags {
			if tags[w] == tag {
				victim = -1
				stamps[w] = now
				break
			}
			if stamps[w] < stamps[victim] {
				victim = w
			}
		}
		if victim >= 0 {
			tags[victim], stamps[victim] = tag, now
		}
	}
}

// refProbe times the reference on both vCPUs.
type refProbe struct {
	models [parallel]refModel
}

func newRefProbe() *refProbe {
	p := &refProbe{}
	for i := range p.models {
		p.models[i] = refModel{tags: make([]uint64, refSets*refWays), stamps: make([]uint64, refSets*refWays)}
	}
	p.unit() // first touch of the models' memory is not part of the speed
	return p
}

// unit runs one model per vCPU at once and returns their mean seconds.
func (p *refProbe) unit() float64 {
	var took [parallel]float64
	var wg sync.WaitGroup
	for i := range p.models {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := clock()
			p.models[i].run()
			took[i] = since(start)
		}()
	}
	wg.Wait()
	sum := 0.0
	for _, t := range took {
		sum += t
	}
	return sum / parallel
}

// sample is the median of nine units: one unit varies by a tenth.
func (p *refProbe) sample() float64 {
	units := make([]float64, 9)
	for i := range units {
		units[i] = p.unit()
	}
	sort.Float64s(units)
	return units[len(units)/2]
}
