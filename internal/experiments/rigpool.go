package experiments

import (
	"slices"
	"sync"

	"repro/internal/probe"
	"repro/internal/testbed"
)

// RigPool recycles cloned machines across trials. A fresh clone builds a
// shell — cache line arrays, allocator bitset, NIC ring, eviction-set
// buffers — and restores into it, even though the trials on a worker
// mostly measure machines whose buffers have the same few sizes. The pool
// keeps finished rigs, keyed by their machine's testbed.Shape, and a later
// lease of the same shape adopts one in place: every buffer is reused,
// the restore allocates nothing (see testbed.AdoptSnapshot), and the page
// free list is read through the snapshot's allocator state until the
// trial writes it (see mem.Allocator).
//
// The shape key is what makes cross-artifact reuse safe. It covers the
// size of every buffer a machine holds — cache slices, sets and ways,
// whether the cache is partitioned, NIC ring and skb pool sizes, memory
// size — while everything else is rebound or overwritten on adoption:
// the cache and NIC take the artifact's configuration (latencies, DDIO,
// partition thresholds, ring randomization), and the snapshot carries the
// seed, the online knobs and all machine *state*. A rig that ran a
// partitioned trial with one I/O-way quota can therefore back a trial with
// another, and one that ran a timer-coarsened or DDIO-off trial can back
// an undefended one, with bit-identical results. A leased rig poisoned by
// a partial, panicked Measure heals the same way: the next adoption
// overwrites every mutable field.
//
// The pool is mutex-guarded so one pool MAY be shared across goroutines,
// but the runner deliberately gives each worker its own (an uncontended
// mutex costs nanoseconds and per-worker pools keep rig reuse order — and
// thus memory footprint — independent of scheduling).
type RigPool struct {
	mu   sync.Mutex
	idle map[testbed.Shape][]*attackRig
	// order lists the keys holding idle rigs, least recently released
	// first; n counts idle rigs across them.
	order []testbed.Shape
	n     int
	stats RigPoolStats
}

// maxIdle caps how many idle rigs a pool retains across all keys. A single
// matrix-style trial leases ~20 rigs of one shape before releasing any of
// them; the cap keeps that worst case pooled. The cap spans keys so that
// a worker whose trials move on to a shape it never leases again does not
// keep those rigs for the rest of the job.
const maxIdle = 32

// RigPoolStats counts a pool's traffic. Adopted leases were served by an
// idle rig; Fresh ones found none of their key, so the caller cloned a new
// machine; Dropped rigs were evicted by the cap and left to the garbage
// collector.
type RigPoolStats struct {
	Adopted, Fresh, Dropped int
}

// Add returns the field-wise sum of s and o.
func (s RigPoolStats) Add(o RigPoolStats) RigPoolStats {
	return RigPoolStats{Adopted: s.Adopted + o.Adopted, Fresh: s.Fresh + o.Fresh, Dropped: s.Dropped + o.Dropped}
}

// NewRigPool returns an empty pool.
func NewRigPool() *RigPool {
	return &RigPool{idle: make(map[testbed.Shape][]*attackRig)}
}

// Stats returns the pool's counts so far.
func (p *RigPool) Stats() RigPoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// take removes and returns an idle rig for key, or nil when none is
// pooled (the caller adopts into a fresh shell instead).
func (p *RigPool) take(key testbed.Shape) *attackRig {
	p.mu.Lock()
	defer p.mu.Unlock()
	rigs := p.idle[key]
	if len(rigs) == 0 {
		p.stats.Fresh++
		return nil
	}
	p.stats.Adopted++
	return p.pop(key)
}

// pop removes the newest idle rig of key, which must hold one, keeping
// the key's backing array for its next release.
func (p *RigPool) pop(key testbed.Shape) *attackRig {
	rigs := p.idle[key]
	r := rigs[len(rigs)-1]
	rigs[len(rigs)-1] = nil
	p.idle[key] = rigs[:len(rigs)-1]
	p.n--
	if len(rigs) == 1 {
		p.unlist(key)
	}
	return r
}

// unlist removes key from the release order.
func (p *RigPool) unlist(key testbed.Shape) {
	if i := slices.Index(p.order, key); i >= 0 {
		p.order = slices.Delete(p.order, i, i+1)
	}
}

// put returns a rig to the idle set and marks its key the most recently
// released. Over the cap, the least recently released key loses idle rigs
// first: its shape is the least likely to be leased again. An idle rig
// holds no page free list, neither a snapshot's state nor a materialized
// list: the next adopt restores one anyway.
func (p *RigPool) put(r *attackRig) {
	if r == nil || r.poolKey == (testbed.Shape{}) {
		return
	}
	if r.tb != nil {
		r.tb.Alloc().DropFreeList()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	key := r.poolKey
	p.unlist(key)
	p.order = append(p.order, key)
	p.idle[key] = append(p.idle[key], r)
	p.n++
	for p.n > maxIdle {
		lru := p.order[0]
		p.pop(lru)
		p.stats.Dropped++
		if len(p.idle[lru]) == 0 {
			delete(p.idle, lru)
		}
	}
}

// Lease opens a lease on the pool. The runner holds one lease per worker
// per trial: rigs cloned during the trial are tracked on the lease, and
// Release after the trial returns them all to the pool — whether the
// trial's Measure finished, errored, or panicked, since adoption restores
// a rig from any state.
func (p *RigPool) Lease() *RigLease {
	return &RigLease{pool: p}
}

// RigLease tracks the rigs one trial has drawn from (or registered with) a
// pool. It is single-goroutine, like the Measure it serves; only the
// underlying pool is shared. A nil lease is valid and disables pooling —
// every clone adopts into a fresh shell and is dropped after the trial.
type RigLease struct {
	pool   *RigPool
	leased []*attackRig
}

// take leases an idle rig for key, or nil when pooling is off or the pool
// has none.
func (l *RigLease) take(key testbed.Shape) *attackRig {
	if l == nil {
		return nil
	}
	return l.pool.take(key)
}

// track registers a rig (pooled or fresh) for return at Release.
func (l *RigLease) track(r *attackRig) {
	if l == nil {
		return
	}
	l.leased = append(l.leased, r)
}

// Release returns every tracked rig to the pool, reusing the lease's
// tracking slice for the next trial. Safe on a nil lease.
func (l *RigLease) Release() {
	if l == nil {
		return
	}
	for i, r := range l.leased {
		l.pool.put(r)
		l.leased[i] = nil
	}
	l.leased = l.leased[:0]
}

// adopt rebinds a rig — pooled, or a fresh shell with a zero spy — to
// the artifact's machine: the testbed is restored in place to the
// snapshot (then its online streams reseeded when the trial
// decorrelates), the spy rebound, the eviction sets copied into the rig's
// reused buffers, and the rig keyed for its return to a pool.
// Allocation-free in steady state.
func (r *attackRig) adopt(ra *RigArtifact, reseed bool, online int64) {
	r.tb.AdoptSnapshot(ra.Opts, ra.Machine)
	if reseed {
		r.tb.ReseedOnline(online)
	}
	r.spy.Rebind(r.tb, ra.Spy)
	r.groups = probe.CopyEvictionSetsInto(r.groups, ra.Groups)
	r.ccfg = r.tb.Cache().Config()
	r.poolKey = ra.Opts.Shape()
}
