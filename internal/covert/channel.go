// Package covert implements the paper's §IV remote covert channel: a
// trojan with network access encodes symbols into the sizes of broadcast
// frames, and a spy with no network access decodes them by watching the
// rx-ring buffers' cache sets.
//
// Three variants are implemented, matching the paper's evaluation:
//
//   - the single-buffer channel (Figs 10, 11): one isolated ring buffer is
//     monitored, one symbol per full ring revolution (256 packets);
//   - the multi-buffer channel (Fig 12a,b): n buffers spaced around the
//     recovered ring, one symbol per 256/n packets;
//   - the full-chasing channel (Fig 12c,d): the chaser follows every
//     buffer, one symbol per packet.
//
// The single-buffer channel is the one-section multi-buffer channel: both
// run through one transmit path and one slot decoder.
package covert

import (
	"errors"
	"fmt"

	"repro/internal/netmodel"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Encoding selects the symbol alphabet.
type Encoding int

const (
	// Binary sends "0" as a 1-block frame and "1" as a 4-block frame;
	// the spy requires activity on both data sets to decode a "1", which
	// is why binary error is slightly below ternary (§IV-b).
	Binary Encoding = iota
	// Ternary sends "0" as 1 block, "1" as 3 blocks, "2" as 4 blocks.
	Ternary
)

// Base returns the alphabet size.
func (e Encoding) Base() int {
	if e == Binary {
		return 2
	}
	return 3
}

// BitsPerSymbol returns the information content of one symbol.
func (e Encoding) BitsPerSymbol() float64 {
	if e == Binary {
		return 1
	}
	return 1.5849625007211562 // log2(3)
}

func (e Encoding) String() string {
	if e == Binary {
		return "binary"
	}
	return "ternary"
}

// symbolBlocks maps a symbol to the frame size in cache blocks: 0 -> 1
// block (64 B), 1 -> 3 blocks (192 B), 2 -> 4 blocks (256 B). Binary uses
// {0, 2}. Two-block frames are never sent: block 1 doubles as the clock
// (written by every frame at least via the driver's prefetch), and blocks
// 2 and 3 carry the data.
func symbolBlocks(sym int) int {
	switch sym {
	case 0:
		return 1
	case 1:
		return 3
	default:
		return 4
	}
}

// wireSymbol converts an alphabet symbol to its on-the-wire form.
func wireSymbol(e Encoding, s int) int {
	if e == Binary && s == 1 {
		return 2
	}
	return s
}

// TrojanSource emits the covert frame stream: for each symbol, a burst of
// packetsPerSymbol frames of the symbol's size at line rate, one burst per
// frame period. The frames are ordinary broadcast frames (Known=false):
// they are dropped by the receiving driver and never reach a socket, which
// is what makes the channel invisible to the host's network stack.
type TrojanSource struct {
	wire    *netmodel.Wire
	symbols []int
	enc     Encoding
	perSym  int
	period  uint64
	idx     int
	inBurst int
	frameAt uint64
}

// NewTrojanSource builds the trojan's stream. framePeriod is the symbol
// slot duration in cycles; it must exceed the burst's wire time, and its
// inverse is the channel's symbol rate.
func NewTrojanSource(wire *netmodel.Wire, symbols []int, enc Encoding, packetsPerSymbol int, framePeriod, start uint64) *TrojanSource {
	return &TrojanSource{
		wire:    wire,
		symbols: symbols,
		enc:     enc,
		perSym:  packetsPerSymbol,
		period:  framePeriod,
		frameAt: start,
	}
}

// Next implements netmodel.Source.
func (t *TrojanSource) Next() (netmodel.Frame, bool) {
	if t.idx >= len(t.symbols) {
		return netmodel.Frame{}, false
	}
	sym := wireSymbol(t.enc, t.symbols[t.idx])
	size := netmodel.SizeForBlocks(symbolBlocks(sym))
	f := t.wire.Send(size, t.frameAt, false)
	t.inBurst++
	if t.inBurst >= t.perSym {
		t.inBurst = 0
		t.idx++
		t.frameAt += t.period
	}
	return f, true
}

// BurstWireTime returns the wire time of one worst-case burst, the lower
// bound on the frame period.
func BurstWireTime(packetsPerSymbol int, rateBps float64) uint64 {
	return uint64(packetsPerSymbol) * netmodel.WireTime(netmodel.SizeForBlocks(4), rateBps)
}

// Result summarizes a covert transmission.
type Result struct {
	Sent, Received []int
	// Bandwidth is the realized channel rate in bits/second of simulated
	// time.
	Bandwidth float64
	// ErrorRate is Levenshtein(sent, received)/len(sent).
	ErrorRate float64
	// SyncedErrorRate approximates the paper's "error rate calculated on
	// the synchronized regions" (§IV-c): symbols lost to out-of-sync gaps
	// show up as a pure length deficit, so the deficit is subtracted from
	// the edit distance before normalizing by the received length.
	SyncedErrorRate float64
	// Duration is the simulated transmission time in cycles.
	Duration uint64
	// OutOfSync counts chaser sync losses (full-chasing variant only).
	OutOfSync uint64
	// CalibrationOK reports whether the receiving side's monitors could
	// separate idle timer jitter from frame activity (see
	// probe.Monitor.CalibrationOK / chase.Chaser.CalibrationOK). False
	// means ErrorRate measures a blind receiver, not the channel.
	CalibrationOK bool
}

func evaluate(sent, received []int, enc Encoding, duration uint64) Result {
	r := Result{
		Sent:      sent,
		Received:  received,
		Duration:  duration,
		ErrorRate: stats.ErrorRate(sent, received),
	}
	if len(received) > 0 {
		lev := stats.Levenshtein(sent, received)
		deficit := len(sent) - len(received)
		if deficit < 0 {
			deficit = -deficit
		}
		if lev > deficit {
			r.SyncedErrorRate = float64(lev-deficit) / float64(len(received))
		}
	}
	if duration > 0 {
		r.Bandwidth = float64(len(received)) * enc.BitsPerSymbol() / sim.Seconds(duration)
	}
	return r
}

// decodeToAlphabet folds wire symbols back into the encoding's alphabet.
func decodeToAlphabet(enc Encoding, wire []int) []int {
	if enc == Ternary {
		return wire
	}
	out := make([]int, len(wire))
	for i, s := range wire {
		if s == 2 {
			out[i] = 1
		} else {
			out[i] = 0
		}
	}
	return out
}

// ErrNoIsolatedBuffer reports that the recovered ring has no buffer whose
// page-aligned set hosts no other ring buffer, so the single-buffer
// channel cannot be established (§IV-b).
var ErrNoIsolatedBuffer = errors.New("covert: no isolated buffer in ring")

// isolatedPositions returns, in ring order, the positions of the ring
// buffers whose group id appears exactly once in the recovered ring: the
// buffers whose page-aligned set hosts no other ring buffer, the property
// a monitored buffer needs (§IV-b).
func isolatedPositions(ring []int) []int {
	count := map[int]int{}
	for _, g := range ring {
		count[g]++
	}
	var pos []int
	for p, g := range ring {
		if count[g] == 1 {
			pos = append(pos, p)
		}
	}
	return pos
}

// RunSingleBuffer executes a complete single-buffer transmission on the
// spy's testbed: the trojan sends one symbol per ring revolution, and the
// spy decodes it from the ring's first isolated buffer. It returns
// ErrNoIsolatedBuffer if the ring has none.
func RunSingleBuffer(spy *probe.Spy, groups []probe.EvictionSet, ring []int, symbols []int, enc Encoding, probeRate float64) (Result, error) {
	iso := isolatedPositions(ring)
	if len(iso) == 0 {
		return Result{}, ErrNoIsolatedBuffer
	}
	burst := BurstWireTime(len(ring), netmodel.GigabitRate)
	probeInterval := sim.CyclesPerSecond(probeRate)
	// A frame slot must span several probes or the receiver undersamples;
	// this only binds on scaled-down rings (at the paper's 256-packet
	// bursts even a 7 kHz probe rate sees each slot twice).
	framePeriod := max(burst+burst/2, 3*probeInterval)
	return transmit(spy, groups, []int{ring[iso[0]]}, symbols, enc, len(ring), framePeriod, probeInterval)
}

// decodeWindow is the decode window in samples either side of a clock
// hit: the paper's three-sample window, since activity may straddle two
// samples.
const decodeWindow = 1

// transmit runs the trojan and the spy's receiver over the selected
// groups, one ring section per group: the trojan sends perSym frames per
// symbol, one burst per section period, and the receiver monitors three
// sets of each selected buffer, block 1 (the clock: every frame writes or
// prefetches it) and blocks 2 and 3 (the data sets). The receiver
// inherits the spy's measurement strategy (probe.Strategy): an amplified
// spy keeps the decode usable under a coarse timer by block-timing walks
// and widening thresholds by the calibrated noise floor.
func transmit(spy *probe.Spy, groups []probe.EvictionSet, selected, symbols []int, enc Encoding, perSym int, period, probeInterval uint64) (Result, error) {
	if len(symbols) == 0 {
		return Result{}, fmt.Errorf("covert: no symbols")
	}
	tb := spy.Testbed()
	wire := netmodel.NewWire(netmodel.GigabitRate)
	byID := map[int]probe.EvictionSet{}
	for _, g := range groups {
		byID[g.ID] = g
	}
	var sets []probe.EvictionSet
	for _, id := range selected {
		g := byID[id]
		sets = append(sets, g.Offset(1), g.Offset(2), g.Offset(3))
	}
	// Monitor first: its calibration costs simulated time and must not
	// overlap the transmission.
	mon := probe.NewMonitor(spy, sets)
	start := tb.Clock().Now() + period
	tb.SetTraffic(NewTrojanSource(wire, symbols, enc, perSym, period, start))
	n := len(selected)
	t0 := tb.Clock().Now()
	samples := mon.Collect(int(uint64(len(symbols)+2*n)*period/probeInterval)+1, probeInterval)
	duration := tb.Clock().Now() - t0
	received := decodeToAlphabet(enc, decodeFrames(samples, n, period, decodeWindow))
	r := evaluate(symbols, received, enc, duration)
	r.CalibrationOK = mon.CalibrationOK()
	return r, nil
}

// decodeFrames performs slotted decoding of samples from n monitored
// buffers, each contributing (clock, d2, d3) activity bits: within each
// section period in which a buffer's clock set fired, one symbol is read
// from that buffer's data sets in a window around the clock sample.
// Symbols come out in observation order.
func decodeFrames(samples []probe.Sample, n int, period uint64, window int) []int {
	if len(samples) == 0 {
		return nil
	}
	var out []int
	origin := samples[0].At
	lastSlot := make([]int, n)
	for i := range lastSlot {
		lastSlot[i] = -1
	}
	for i, s := range samples {
		for b := 0; b < n; b++ {
			if !s.Active[3*b] {
				continue // no clock activity
			}
			slot := int((s.At - origin) / period)
			if slot == lastSlot[b] {
				continue // wide peak within the same slot
			}
			lastSlot[b] = slot
			d2, d3 := false, false
			for j := max(i-window, 0); j <= min(i+window, len(samples)-1); j++ {
				d2 = d2 || samples[j].Active[3*b+1]
				d3 = d3 || samples[j].Active[3*b+2]
			}
			switch {
			case d2 && d3:
				out = append(out, 2)
			case d2:
				out = append(out, 1)
			default:
				out = append(out, 0)
			}
		}
	}
	return out
}
