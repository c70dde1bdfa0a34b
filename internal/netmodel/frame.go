// Package netmodel models the network between the remote trojan/victim
// servers and the machine under attack: Ethernet frames, 1 GbE wire pacing
// (the covert channel in the paper is line-rate bound), traffic generators
// for the attack experiments, and the high-rate reordering effect that
// caps the full-chasing channel at 640 kbps (Fig 12d).
package netmodel

import (
	"fmt"

	"repro/internal/sim"
)

const (
	// MinFrameSize is the minimum Ethernet frame (64 bytes, §III-A).
	MinFrameSize = 64
	// MaxFrameSize is the maximum frame with VLAN tagging (1522 bytes).
	MaxFrameSize = 1522
	// MTU is the Ethernet maximum transferable unit (1500-byte payload).
	MTU = 1500
	// wireOverhead is the per-frame overhead on the wire that does not
	// appear in the frame buffer: 8 bytes preamble+SFD and 12 bytes
	// inter-frame gap.
	wireOverhead = 20
	// GigabitRate is the paper's 1 GbE link speed in bits/second.
	GigabitRate = 1e9
)

// Frame is one Ethernet frame as seen by the NIC.
type Frame struct {
	// Seq is a monotonically increasing sequence number assigned by the
	// sender (ground truth only; the receiver never sees it).
	Seq uint64
	// Size is the frame size in bytes, MinFrameSize..MaxFrameSize.
	Size int
	// Arrival is the cycle at which the NIC finishes receiving the frame.
	Arrival uint64
	// Known marks frames whose protocol the receiving kernel handles.
	// The attack's broadcast frames are Unknown: the driver reads the
	// header, finds no protocol handler, and drops them — their cache
	// footprint comes only from the DMA write and the driver's header
	// access (§III-B).
	Known bool
}

// Blocks returns the number of 64-byte cache blocks the frame occupies in
// its rx buffer. Packet sizes in the paper are measured in this unit.
func (f Frame) Blocks() int {
	return (f.Size + 63) / 64
}

// Validate checks the frame is a legal Ethernet frame.
func (f Frame) Validate() error {
	if f.Size < MinFrameSize || f.Size > MaxFrameSize {
		return fmt.Errorf("netmodel: frame size %d outside [%d,%d]", f.Size, MinFrameSize, MaxFrameSize)
	}
	return nil
}

// SizeForBlocks returns the smallest legal frame size that occupies exactly
// n cache blocks, as used by the covert-channel encoders: symbol S is sent
// as a (S+2)*64-byte frame (§IV-b).
func SizeForBlocks(n int) int {
	if n < 1 {
		n = 1
	}
	if n*64 > MaxFrameSize {
		return MaxFrameSize
	}
	if n == 1 {
		return MinFrameSize
	}
	return n * 64
}

// WireTime returns the number of cycles a frame of the given size occupies
// the wire at rateBps, including preamble and inter-frame gap.
func WireTime(size int, rateBps float64) uint64 {
	bits := float64(size+wireOverhead) * 8
	return sim.Cycles(bits / rateBps)
}

// Wire serializes frames onto a shared link: a frame's arrival is the later
// of the requested time and the wire becoming free, plus its wire time.
type Wire struct {
	rateBps  float64
	nextFree uint64
	nextSeq  uint64
	sent     uint64
}

// NewWire returns a wire at the given bit rate.
func NewWire(rateBps float64) *Wire {
	return &Wire{rateBps: rateBps}
}

// Send schedules a frame of the given size no earlier than cycle earliest
// and returns it with its arrival time stamped.
func (w *Wire) Send(size int, earliest uint64, known bool) Frame {
	start := earliest
	if w.nextFree > start {
		start = w.nextFree
	}
	arrival := start + WireTime(size, w.rateBps)
	w.nextFree = arrival
	f := Frame{Seq: w.nextSeq, Size: size, Arrival: arrival, Known: known}
	w.nextSeq++
	w.sent++
	return f
}

// Sent returns the number of frames pushed through the wire.
func (w *Wire) Sent() uint64 { return w.sent }

// NextFree returns the cycle at which the wire becomes idle.
func (w *Wire) NextFree() uint64 { return w.nextFree }
