// Package nic models the receive path the Packet Chasing attack spies on:
// an Intel I350-class adapter with its rx descriptor ring, DMA engine
// (through the cache model's DDIO path), and the Linux IGB driver's buffer
// management, faithfully reproducing the behaviours §III-A deconstructs:
//
//   - 256 descriptors by default, each owning a 2 KB buffer; two buffers
//     are packed per 4 KB page and buffers start page-/half-page-aligned;
//   - buffers are recycled, so ring order is stable for the driver's
//     lifetime — the property that makes sequence recovery worthwhile;
//   - small packets (<= 256 B) are copied into an skb and the buffer is
//     reused as-is; large packets attach the page as a fragment and the
//     driver flips the page offset to the other half-page;
//   - the driver always touches the header block and prefetches the second
//     block, which is why 1-block packets still light up block 1 (Fig 8).
//
// The package also hosts the §VI software mitigations: full and periodic
// ring randomization.
package nic

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// RandomizeMode selects the §VI-b software mitigation.
type RandomizeMode int

const (
	// RandomizeNone is the vulnerable stock driver.
	RandomizeNone RandomizeMode = iota
	// RandomizeFull allocates a fresh buffer page for every received
	// packet ("Fully Randomized Ring Buffer" in Fig 16).
	RandomizeFull
	// RandomizePeriodic re-allocates every buffer after each
	// RandomizeInterval received packets ("Partial Randomization").
	RandomizePeriodic
)

func (m RandomizeMode) String() string {
	switch m {
	case RandomizeFull:
		return "full-randomization"
	case RandomizePeriodic:
		return "periodic-randomization"
	default:
		return "none"
	}
}

// Config describes the adapter + driver pair.
type Config struct {
	// RingSize is the number of rx descriptors (IGB default 256; the I350
	// supports up to 4096 — §VI-c suggests growing it as a mitigation).
	RingSize int
	// BufferSize is the per-frame buffer (IGB: 2048 bytes, half a page).
	BufferSize int
	// RxHdrLen is the copy threshold: packets up to this size are copied
	// into the skb and the buffer reused as-is (IGB_RX_HDR_LEN = 256).
	RxHdrLen int
	// PrefetchSecondBlock models the driver optimization that touches the
	// second cache block regardless of packet size (§III-B).
	PrefetchSecondBlock bool
	// DriverLatency is the delay in cycles between the NIC's DMA write
	// and the driver's processing of the packet (interrupt + softirq).
	// §IV-d cites <20k cycles for ~100% of packets.
	DriverLatency uint64
	// SKBPages is the size of the modeled socket-buffer pool.
	SKBPages int
	// Randomize selects a §VI mitigation.
	Randomize RandomizeMode
	// RandomizeInterval is the packet count between periodic
	// re-randomizations (Fig 16 uses 1k and 10k).
	RandomizeInterval int
	// ReallocProb is the probability that a buffer cannot be reused
	// (remote NUMA page / page still referenced, the "unlikely" branches
	// of igb_can_reuse_rx_page). 0 keeps the ring order perfectly stable.
	ReallocProb float64
}

// DefaultConfig returns the stock IGB driver configuration from the paper.
func DefaultConfig() Config {
	return Config{
		RingSize:            256,
		BufferSize:          2048,
		RxHdrLen:            256,
		PrefetchSecondBlock: true,
		DriverLatency:       5_000,
		// skbs come from the slab allocator, which cycles through a broad
		// arena of pages rather than a handful of fixed buffers; a small
		// pool would concentrate skb-write pollution on a few cache sets.
		SKBPages: 512,
	}
}

// Stats counts driver-level events.
type Stats struct {
	Received, Dropped   uint64
	Copied, Fragged     uint64
	Reused, Reallocated uint64
	Randomizations      uint64
	PageFlips           uint64
}

// descriptor is one rx ring entry: a buffer at Page+Offset. Its fields,
// and pending's, are exported so a snapshot's wire form holds the ring and
// the driver queue as memory does.
type descriptor struct {
	Page   mem.Addr
	Offset uint32 // 0 or BufferSize (half-page flip)
}

// pending is a DMA-completed frame awaiting driver processing.
type pending struct {
	Frame   netmodel.Frame
	DescIdx int
	Buf     mem.Addr
	DueAt   uint64
}

// NIC is the adapter + driver model.
type NIC struct {
	//packetlint:transient configuration, set by New/NewShell and Rebind (which keeps the ring and skb sizes); Restore checks the shape
	cfg Config
	//packetlint:transient wiring to the shared cache, rebound only by New/NewShell
	cache *cache.Cache
	//packetlint:transient wiring to the shared allocator, rebound only by New/NewShell
	alloc *mem.Allocator
	//packetlint:transient wiring to the shared clock, rebound only by New/NewShell
	clock  *sim.Clock
	rng    *sim.RNG
	ring   []descriptor
	head   int
	queue  []pending
	skb    []mem.Addr
	skbIdx int
	// descRing models the coherent-memory descriptor ring the driver
	// reads for each packet.
	descRing mem.Addr
	stats    Stats
	sincePct int
}

// New initializes the driver: it allocates one buffer page per descriptor
// (the once-per-lifetime allocation §III-A describes), an skb pool, and a
// page for the coherent descriptor ring. rng is the driver's own stream,
// drawn for buffer reallocation; it must not be nil.
func New(cfg Config, c *cache.Cache, alloc *mem.Allocator, clock *sim.Clock, rng *sim.RNG) (*NIC, error) {
	pages, err := AllocRing(cfg, alloc)
	if err != nil {
		return nil, err
	}
	if cfg.SKBPages <= 0 {
		cfg.SKBPages = 1
	}
	n := &NIC{cfg: cfg, cache: c, alloc: alloc, clock: clock, rng: rng}
	n.ring = make([]descriptor, cfg.RingSize)
	for i, p := range pages {
		n.ring[i] = descriptor{Page: p}
	}
	if n.skb, err = alloc.AllocPages(cfg.SKBPages); err != nil {
		return nil, fmt.Errorf("nic: skb pool: %w", err)
	}
	if n.descRing, err = alloc.AllocPage(); err != nil {
		return nil, fmt.Errorf("nic: descriptor ring: %w", err)
	}
	return n, nil
}

// AllocRing checks the ring geometry and allocates its buffer pages, one
// per descriptor in ring order — the first allocation New makes, so the
// ring of a machine is the first cfg.RingSize pages its allocator hands
// out.
func AllocRing(cfg Config, alloc *mem.Allocator) ([]mem.Addr, error) {
	if cfg.RingSize <= 0 || cfg.BufferSize <= 0 || cfg.BufferSize > mem.PageSize {
		return nil, fmt.Errorf("nic: invalid ring/buffer geometry %d/%d", cfg.RingSize, cfg.BufferSize)
	}
	pages, err := alloc.AllocPages(cfg.RingSize)
	if err != nil {
		return nil, fmt.Errorf("nic: ring allocation: %w", err)
	}
	return pages, nil
}

// Config returns the driver configuration.
func (n *NIC) Config() Config { return n.cfg }

// Rebind gives the driver another configuration with the same ring size
// and skb pool size (after New's normalization), so the ring and pool
// arrays are reused as they are; everything else, the §VI randomization
// included, may change. State is untouched; the caller restores a
// snapshot taken under cfg next. A rebind across sizes panics, since it
// can only mean two machines got crossed.
func (n *NIC) Rebind(cfg Config) {
	if cfg.SKBPages <= 0 {
		cfg.SKBPages = 1
	}
	if cfg.RingSize != len(n.ring) || cfg.SKBPages != len(n.skb) {
		panic(fmt.Sprintf("nic: rebinding a %d-desc/%d-skb driver to %d-desc/%d-skb",
			len(n.ring), len(n.skb), cfg.RingSize, cfg.SKBPages))
	}
	n.cfg = cfg
}

// Stats returns a snapshot of driver counters.
func (n *NIC) Stats() Stats { return n.stats }

// Receive performs the DMA for a frame: the NIC writes the frame's blocks
// into the next ring buffer (through DDIO when enabled) and queues driver
// processing. Call in arrival order; the caller is responsible for having
// advanced the clock to at least f.Arrival.
func (n *NIC) Receive(f netmodel.Frame) {
	d := &n.ring[n.head]
	buf := d.Page + mem.Addr(d.Offset)
	blocks := f.Blocks()
	if max := n.cfg.BufferSize / 64; blocks > max {
		blocks = max
	}
	for b := 0; b < blocks; b++ {
		n.cache.IOWrite(uint64(buf) + uint64(b*64))
	}
	n.queue = append(n.queue, pending{Frame: f, DescIdx: n.head, Buf: buf, DueAt: f.Arrival + n.cfg.DriverLatency})
	// Conditional wrap instead of modulo: the integer divide was
	// measurable on the per-packet path, and head advances by exactly one.
	if n.head++; n.head == n.cfg.RingSize {
		n.head = 0
	}
	n.stats.Received++
}

// ProcessDriver runs driver processing for every queued packet due at or
// before cycle t. The driver core's cache accesses do not advance the
// simulated clock (it runs in parallel with the spy's core).
func (n *NIC) ProcessDriver(t uint64) {
	i := 0
	for ; i < len(n.queue) && n.queue[i].DueAt <= t; i++ {
		n.process(n.queue[i])
	}
	// Compact in place: reslicing past the processed frames would creep
	// the backing array forward and make Receive's append reallocate it.
	n.queue = n.queue[:copy(n.queue, n.queue[i:])]
}

// PendingDriverWork reports queued-but-unprocessed packets.
func (n *NIC) PendingDriverWork() int { return len(n.queue) }

// process is the igb_clean_rx_irq equivalent for one packet.
func (n *NIC) process(p pending) {
	// Read the rx descriptor from the coherent ring (16 bytes/desc).
	n.cache.Read(uint64(n.descRing) + uint64(p.DescIdx*16))
	// Driver always reads the header block...
	n.cache.Read(uint64(p.Buf))
	// ...and prefetches the second block regardless of size (Fig 8's
	// artifact: 1-block packets light up block 1 too).
	if n.cfg.PrefetchSecondBlock {
		n.cache.Read(uint64(p.Buf) + 64)
	}

	if !p.Frame.Known {
		// No protocol handler: frame dropped in the driver; buffer reused.
		n.stats.Dropped++
		n.stats.Reused++
		n.finishPacket(p.DescIdx)
		return
	}

	blocks := p.Frame.Blocks()
	if max := n.cfg.BufferSize / 64; blocks > max {
		blocks = max
	}
	if p.Frame.Size <= n.cfg.RxHdrLen {
		// igb_add_rx_frag small path: memcpy into the skb, reuse buffer.
		for b := 0; b < blocks; b++ {
			n.cache.Read(uint64(p.Buf) + uint64(b*64))
			n.cache.Write(uint64(n.nextSKB()) + uint64(b*64))
		}
		n.stats.Copied++
		if n.rng.Bernoulli(n.cfg.ReallocProb) {
			n.reallocDescriptor(p.DescIdx)
		} else {
			n.stats.Reused++
		}
		n.finishPacket(p.DescIdx)
		return
	}

	// Large path: attach the page as an skb fragment (pointer write), the
	// stack touches the payload shortly after (§IV-d), and
	// igb_can_reuse_rx_page flips the half-page offset.
	n.cache.Write(uint64(n.nextSKB()))
	for b := 0; b < blocks; b++ {
		n.cache.Read(uint64(p.Buf) + uint64(b*64))
	}
	n.stats.Fragged++
	if n.rng.Bernoulli(n.cfg.ReallocProb) {
		n.reallocDescriptor(p.DescIdx)
	} else {
		n.ring[p.DescIdx].Offset ^= uint32(n.cfg.BufferSize)
		n.stats.PageFlips++
		n.stats.Reused++
	}
	n.finishPacket(p.DescIdx)
}

// finishPacket applies the §VI randomization defenses after a packet has
// been handled.
func (n *NIC) finishPacket(descIdx int) {
	switch n.cfg.Randomize {
	case RandomizeFull:
		n.reallocDescriptor(descIdx)
		n.stats.Randomizations++
	case RandomizePeriodic:
		n.sincePct++
		if n.sincePct >= n.cfg.RandomizeInterval {
			n.sincePct = 0
			n.RandomizeRing()
		}
	}
}

// reallocDescriptor gives a descriptor a fresh physical page at a random
// location (see mem.AllocPageRandom for why placement must be random).
func (n *NIC) reallocDescriptor(i int) {
	old := n.ring[i].Page
	fresh, err := n.alloc.AllocPageRandom(n.rng)
	if err != nil {
		// Allocator exhausted: keep the old page (kernel would retry).
		n.stats.Reused++
		return
	}
	n.alloc.FreePage(old)
	n.ring[i] = descriptor{Page: fresh}
	n.stats.Reallocated++
}

// RandomizeRing re-allocates every buffer, destroying both the cache
// footprint and the sequence the attacker learned (§VI-b).
func (n *NIC) RandomizeRing() {
	for i := range n.ring {
		n.reallocDescriptor(i)
	}
	n.stats.Randomizations++
}

func (n *NIC) nextSKB() mem.Addr {
	a := n.skb[n.skbIdx]
	if n.skbIdx++; n.skbIdx == len(n.skb) {
		n.skbIdx = 0
	}
	return a
}

// --- Ground-truth oracles (instrumented-driver equivalents) ---
//
// The paper validates the attack by instrumenting the driver to print the
// physical addresses of the ring buffers. These accessors are that
// instrumentation; attack code never calls them.

// BufferPage returns the physical page of descriptor i.
func (n *NIC) BufferPage(i int) mem.Addr { return n.ring[i].Page }

// RingAlignedSets returns, per ring position, the canonical page-aligned
// set index (0..255) of that buffer's page — the ground truth for Figs 5-6
// and the Table I sequence.
func (n *NIC) RingAlignedSets(cfg cache.Config) []int {
	out := make([]int, len(n.ring))
	for i, d := range n.ring {
		out[i] = cfg.AlignedIndexOf(cfg.GlobalSet(uint64(d.Page)))
	}
	return out
}

// NextDescriptor returns the ring index the next packet will fill.
func (n *NIC) NextDescriptor() int { return n.head }

// DescRingPage returns the page holding the coherent rx descriptor ring.
// Driver reads of descriptors make this page's sets light up alongside the
// buffers — a pollution source the sequencer has to live with.
func (n *NIC) DescRingPage() mem.Addr { return n.descRing }

// SKBPages returns the socket-buffer pool pages (copy-path destinations).
func (n *NIC) SKBPages() []mem.Addr { return append([]mem.Addr(nil), n.skb...) }
