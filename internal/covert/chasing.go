package covert

import (
	"repro/internal/chase"
	"repro/internal/netmodel"
	"repro/internal/probe"
	"repro/internal/sim"
)

// ChasingChannel is the §IV-c full-sequence channel (Fig 12c,d): the spy
// probes one buffer at a time, moving to the next ring buffer on each
// detected packet, so the trojan can send one symbol per packet. Its
// bandwidth is set by the trojan's packet rate; its weakness is losing
// sync when a packet is missed, after which the spy must wait for the ring
// to come back around.
type ChasingChannel struct {
	spy    *probe.Spy
	groups []probe.EvictionSet
	ring   []int
}

// NewChasingChannel builds the channel from the offline phase's outputs.
func NewChasingChannel(spy *probe.Spy, groups []probe.EvictionSet, ring []int) *ChasingChannel {
	return &ChasingChannel{spy: spy, groups: groups, ring: ring}
}

// perPacketSource sends one symbol per frame at the given packet rate,
// optionally through the reordering model that kicks in at high rates.
func perPacketSource(wire *netmodel.Wire, symbols []int, enc Encoding, packetRate float64, start uint64, rng *sim.RNG) netmodel.Source {
	var src netmodel.Source = NewTrojanSource(wire, symbols, enc, 1, sim.CyclesPerSecond(packetRate), start)
	if p := netmodel.ReorderProbabilityAt(packetRate); p > 0 {
		src = netmodel.NewReorderingSource(src, p, rng)
	}
	return src
}

// Run executes a transmission of the given symbols at packetRate frames
// per second and decodes by chasing. Decoded symbols come from the size
// class of each observed packet: 1-2 blocks -> 0, 3 -> 1, 4+ -> 2.
func (c *ChasingChannel) Run(symbols []int, enc Encoding, packetRate float64, rng *sim.RNG) Result {
	tb := c.spy.Testbed()
	cfg := chase.DefaultChaserConfig()
	cfg.MonitorSecondHalf = false // covert frames are dropped small frames
	cfg.SwitchDetect = false      // paced stream: residue would insert symbols
	period := sim.CyclesPerSecond(packetRate)
	cfg.PollInterval = period / 8
	if cfg.PollInterval == 0 {
		cfg.PollInterval = 1
	}
	cfg.SyncTimeout = period * uint64(len(c.ring)) * 2
	// Linger long enough to absorb driver residue but never longer than a
	// fraction of the packet period, or the chase cannot keep up.
	if cfg.LingerCycles > period/3 {
		cfg.LingerCycles = period / 3
	}
	// Chaser first: its monitor calibration costs simulated time and must
	// not overlap the transmission.
	ch := chase.NewChaser(c.spy, c.groups, c.ring, cfg)
	wire := netmodel.NewWire(netmodel.GigabitRate)
	start := tb.Clock().Now() + 100_000
	tb.SetTraffic(perPacketSource(wire, symbols, enc, packetRate, start, rng))

	t0 := tb.Clock().Now()
	obs := ch.Chase(len(symbols))
	duration := tb.Clock().Now() - t0

	received := make([]int, 0, len(obs))
	for _, o := range obs {
		switch {
		case o.Blocks >= 4:
			received = append(received, 2)
		case o.Blocks == 3:
			received = append(received, 1)
		default:
			received = append(received, 0)
		}
	}
	res := evaluate(symbols, decodeToAlphabet(enc, received), enc, duration)
	res.OutOfSync = ch.OutOfSync
	res.CalibrationOK = ch.CalibrationOK()
	return res
}

// OutOfSyncRate converts a Result's sync losses into the per-packet rate
// Fig 12c reports.
func OutOfSyncRate(r Result) float64 {
	if len(r.Sent) == 0 {
		return 0
	}
	return float64(r.OutOfSync) / float64(len(r.Sent))
}
