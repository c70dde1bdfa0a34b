package chase

import (
	"repro/internal/probe"
)

// PacketObservation is one packet as seen by the online chaser.
type PacketObservation struct {
	// At is the cycle at which activity was detected.
	At uint64
	// Blocks is the detected size class in cache blocks: 1..MaxBlocks,
	// where MaxBlocks means "MaxBlocks or larger" (the paper's "4+").
	// Note the driver's block-1 prefetch makes 1-block packets light up
	// block 1 as well (Fig 8), so classes 1 and 2 can only be separated
	// by the temporal gap between DMA and driver prefetch; Blocks
	// reports the raw class.
	Blocks int
	// Resynced marks observations made right after an out-of-sync
	// recovery, whose position in the stream is approximate.
	Resynced bool
}

// ChaserConfig tunes the online phase.
type ChaserConfig struct {
	// MaxBlocks is the largest distinguished size class (paper: 4, i.e.
	// "1", "2", "3", "4+").
	MaxBlocks int
	// PollInterval is the cycle gap between polls of the expected buffer.
	PollInterval uint64
	// SyncTimeout is how long to wait on one buffer before declaring the
	// chase out of sync (a missed packet); the chaser then holds position
	// until the ring comes back around (§IV-c).
	SyncTimeout uint64
	// MonitorSecondHalf also probes the second half-page of each buffer,
	// needed because the driver flips halves after large packets (§V).
	MonitorSecondHalf bool
	// SwitchDetect counts a packet pattern seen by the buffer-switch probe
	// as a detection instead of discarding it as a priming pass. Enable
	// for bursty traffic (web pages), where back-to-back packets would
	// otherwise be erased and the chase stalls; disable for paced covert
	// streams, where driver-read residue would insert phantom symbols.
	SwitchDetect bool
	// LingerCycles is how long the chaser keeps watching a buffer after
	// detecting its packet, to absorb the driver's processing of that
	// same packet (DMA-to-driver-read latency). Without it the driver's
	// reads re-fire the buffer's sets a revolution later and masquerade
	// as a fresh packet. The extra blocks observed while lingering also
	// sharpen the size classification.
	LingerCycles uint64
}

// DefaultChaserConfig returns the §V configuration: four blocks on both
// half-pages.
func DefaultChaserConfig() ChaserConfig {
	return ChaserConfig{
		MaxBlocks:         4,
		PollInterval:      2_000,
		SyncTimeout:       30_000_000,
		MonitorSecondHalf: true,
		SwitchDetect:      true,
		LingerCycles:      8_000,
	}
}

// Chaser follows packets around the recovered ring, probing only the sets
// of the buffer expected to fill next — the resolution multiplier that
// distinguishes Packet Chasing from blanket PRIME+PROBE.
//
// The chaser inherits the spy's measurement strategy (probe.Strategy):
// built on an amplified spy, every per-buffer monitor block-times its
// walks and widens its thresholds by the calibrated noise floor, which is
// what keeps the chase alive under a timer-coarsening defense. Use
// CalibrationOK to tell a healthy chase from one whose monitors have
// explicitly declared themselves unable to separate signal from jitter.
type Chaser struct {
	spy    *probe.Spy
	groups []probe.EvictionSet
	ring   []int // group ids in recovered ring order
	cfg    ChaserConfig

	pos        int
	lastPrimed int
	monitors   map[int]*probe.Monitor // group id -> 2*MaxBlocks-set monitor
	// active is the activity vector Next builds a packet's observation
	// in, reused from packet to packet.
	active []bool

	// OutOfSync counts sync losses; Observed counts packets seen.
	OutOfSync, Observed uint64
}

// NewChaser builds the online chaser from the offline phase's outputs.
// Monitors for every distinct ring buffer are built (and calibrated) up
// front: building one lazily mid-chase costs thousands of cycles during
// which a back-to-back packet would slip past unobserved.
func NewChaser(spy *probe.Spy, groups []probe.EvictionSet, ring []int, cfg ChaserConfig) *Chaser {
	c := &Chaser{
		spy:        spy,
		groups:     groups,
		ring:       ring,
		cfg:        cfg,
		lastPrimed: -1,
		monitors:   make(map[int]*probe.Monitor),
	}
	for _, gid := range ring {
		c.monitorFor(gid)
	}
	return c
}

// monitorFor lazily builds the per-buffer monitor: block sets 0..MaxBlocks-1
// of the first half-page, plus the same blocks of the second half-page
// (offset 32 blocks = 2048 bytes) when configured.
func (c *Chaser) monitorFor(groupID int) *probe.Monitor {
	if m, ok := c.monitors[groupID]; ok {
		return m
	}
	g := c.groups[groupID]
	var sets []probe.EvictionSet
	for k := 0; k < c.cfg.MaxBlocks; k++ {
		sets = append(sets, g.Offset(k))
	}
	if c.cfg.MonitorSecondHalf {
		for k := 0; k < c.cfg.MaxBlocks; k++ {
			sets = append(sets, g.Offset(32+k))
		}
	}
	m := probe.NewMonitor(c.spy, sets)
	c.monitors[groupID] = m
	return m
}

// Position returns the current index into the recovered ring.
func (c *Chaser) Position() int { return c.pos }

// CalibrationOK reports whether every per-buffer monitor's calibration
// can actually separate idle timer jitter from packet activity (see
// probe.Monitor.CalibrationOK). False means the observation stream is
// noise — experiments surface it as the calibration_ok metric instead of
// letting a blind chase masquerade as a defense victory.
func (c *Chaser) CalibrationOK() bool {
	for _, m := range c.monitors {
		if !m.CalibrationOK() {
			return false
		}
	}
	return true
}

// waitForActivity blocks (in simulated time) until the current buffer
// shows activity or the timeout elapses, returning the observed activity
// vector (in c.active) and whether anything was seen.
func (c *Chaser) waitForActivity(m *probe.Monitor, timeout uint64) ([]bool, bool) {
	tb := c.spy.Testbed()
	deadline := tb.Clock().Now() + timeout
	// No re-priming on switch: the detection probe that observed this
	// buffer's previous packet (one ring revolution ago) already re-primed
	// its sets, and a discarded priming pass would swallow a packet that
	// lands between the switch and the first counted poll.
	// Activity accumulates over a short window of polls: probing consumes
	// evictions, so the DMA write and the driver's prefetch of block 1 can
	// surface in different polls and must be OR-ed before applying the
	// detection rule. The window is bounded so ambient noise collected
	// over a long idle wait cannot fake a packet.
	const windowPolls = 16
	var sticky []bool
	polls := 0
	for tb.Clock().Now() < deadline {
		active := m.Poll()
		if sticky == nil || polls >= windowPolls {
			sticky = c.activeBuf(len(active))
			clear(sticky)
			polls = 0
		}
		for i, a := range active {
			sticky[i] = sticky[i] || a
		}
		polls++
		if c.packetDetected(sticky) {
			return sticky, true
		}
		tb.Idle(c.cfg.PollInterval)
	}
	return nil, false
}

// activeBuf returns c.active resliced to n entries, grown if needed; its
// contents are stale.
func (c *Chaser) activeBuf(n int) []bool {
	if cap(c.active) < n {
		c.active = make([]bool, n)
	}
	return c.active[:n]
}

// packetDetected applies the paper's detection rule: a packet is filling
// the buffer only when blocks 0 AND 1 both show activity (§V: "she finds a
// window in which there are activities on both block 0 and block 1") —
// every frame DMAs block 0 and at least prefetches block 1, while ambient
// noise rarely strikes two specific sets within one poll.
func (c *Chaser) packetDetected(active []bool) bool {
	if c.cfg.MaxBlocks < 2 {
		for _, a := range active {
			if a {
				return true
			}
		}
		return false
	}
	if active[0] && active[1] {
		return true
	}
	if c.cfg.MonitorSecondHalf && len(active) >= c.cfg.MaxBlocks+2 {
		return active[c.cfg.MaxBlocks] && active[c.cfg.MaxBlocks+1]
	}
	return false
}

// Next chases one packet: it waits for the expected buffer to fill,
// classifies the packet size, and advances along the ring. When the wait
// times out, the chaser counts an out-of-sync event and keeps waiting on
// the same buffer for the ring to come back around — the recovery
// behaviour whose cost Fig 12c quantifies.
func (c *Chaser) Next() (PacketObservation, bool) {
	resynced := false
	for {
		m := c.monitorFor(c.ring[c.pos])
		// One probe at buffer-switch time. If it already shows the packet
		// pattern, count it immediately: a back-to-back packet may have
		// landed during the previous buffer's detection probe, and
		// discarding this pass (as a pure priming pass would) can lose the
		// chase permanently. The cost is that driver-read residue from
		// this buffer's previous packet occasionally double-counts as a
		// packet — an insertion error rather than a stall.
		var active []bool
		detected := false
		if c.lastPrimed != c.pos {
			c.lastPrimed = c.pos
			poll := m.Poll()
			if c.cfg.SwitchDetect && c.packetDetected(poll) {
				active, detected = c.activeBuf(len(poll)), true
				copy(active, poll)
			}
		}
		if !detected {
			var ok bool
			active, ok = c.waitForActivity(m, c.cfg.SyncTimeout)
			if !ok {
				c.OutOfSync++
				if resynced {
					// Two consecutive timeouts: traffic has stopped.
					return PacketObservation{}, false
				}
				resynced = true
				continue
			}
		}
		// Linger to absorb (and fold in) the driver's processing of this
		// packet; see ChaserConfig.LingerCycles.
		if c.cfg.LingerCycles > 0 {
			c.spy.Testbed().Idle(c.cfg.LingerCycles)
			poll := m.Poll()
			for i := range active {
				active[i] = active[i] || poll[i]
			}
		}
		obs := PacketObservation{
			At:       c.spy.Testbed().Clock().Now(),
			Blocks:   c.classify(active),
			Resynced: resynced,
		}
		c.Observed++
		c.pos = (c.pos + 1) % len(c.ring)
		return obs, true
	}
}

// Chase collects up to n packet observations.
func (c *Chaser) Chase(n int) []PacketObservation {
	out := make([]PacketObservation, 0, n)
	for len(out) < n {
		obs, ok := c.Next()
		if !ok {
			break
		}
		out = append(out, obs)
	}
	return out
}

// classify turns the activity vector (blocks 0..MaxBlocks-1 of each
// monitored half-page) into a size class: the highest active block index
// across the active half, plus one.
func (c *Chaser) classify(active []bool) int {
	classOf := func(half []bool) int {
		cls := 0
		for k, a := range half {
			if a {
				cls = k + 1
			}
		}
		return cls
	}
	cls := classOf(active[:c.cfg.MaxBlocks])
	if c.cfg.MonitorSecondHalf && len(active) >= 2*c.cfg.MaxBlocks {
		if alt := classOf(active[c.cfg.MaxBlocks : 2*c.cfg.MaxBlocks]); alt > cls {
			cls = alt
		}
	}
	if cls == 0 {
		cls = 1
	}
	return cls
}

// SizeTrace extracts the size-class vector from observations — the input
// to the fingerprint classifier.
func SizeTrace(obs []PacketObservation) []int {
	out := make([]int, len(obs))
	for i, o := range obs {
		out[i] = o.Blocks
	}
	return out
}
