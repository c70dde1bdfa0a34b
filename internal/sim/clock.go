// Package sim provides the deterministic simulation substrate for the
// Packet Chasing reproduction: a global cycle clock standing in for the
// processor's time-stamp counter and seeded random-number fan-out.
//
// The paper's attack measures everything in CPU cycles (rdtsc). Real cycle
// timing is unobtainable from Go — garbage collection and scheduler jitter
// swamp the ~100-cycle signal — so every component in this reproduction
// charges its latency to a shared simulated clock instead. The attack code
// reads the same kind of quantity it would read on hardware: elapsed cycles
// around a memory access.
package sim

import "fmt"

// Frequency is the simulated core frequency. The paper's Xeon E5-2660 and
// its gem5 baseline (Table II) both run at 3.3 GHz equivalents; we adopt
// 3.3 GHz so that cycle<->second conversions match the paper's arithmetic
// (e.g. a 0.2 Mpps packet stream is one packet per 16,500 cycles).
const Frequency = 3_300_000_000 // cycles per second

// Clock is the global simulated cycle counter. All components that consume
// time (cache accesses, DMA transfers, spy idle loops, driver processing)
// advance it explicitly. A Clock is not safe for concurrent use; the
// simulation core is single-goroutine by design to stay deterministic.
type Clock struct {
	now uint64
}

// NewClock returns a clock at cycle zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current cycle.
func (c *Clock) Now() uint64 { return c.now }

// Advance moves the clock forward by d cycles.
func (c *Clock) Advance(d uint64) { c.now += d }

// AdvanceTo moves the clock forward to cycle t. It panics if t is in the
// past: components must never rewind time, and a panic here has always
// indicated an event-ordering bug.
func (c *Clock) AdvanceTo(t uint64) {
	if t < c.now {
		panic(fmt.Sprintf("sim: clock rewind from %d to %d", c.now, t))
	}
	c.now = t
}

// Snapshot captures the current cycle for later Restore.
func (c *Clock) Snapshot() uint64 { return c.now }

// Restore sets the clock to a previously captured cycle. Unlike AdvanceTo
// it may rewind: restoring a machine snapshot legitimately moves time
// backwards, and the surrounding components are restored with it so no
// event-ordering invariant is violated.
func (c *Clock) Restore(t uint64) { c.now = t }

// CyclesPerSecond converts a per-second rate into a cycle period, rounding
// to the nearest cycle. A rate of 0 returns 0.
func CyclesPerSecond(rate float64) uint64 {
	if rate <= 0 {
		return 0
	}
	return uint64(float64(Frequency)/rate + 0.5)
}

// Seconds converts a cycle count into seconds at the simulated frequency.
func Seconds(cycles uint64) float64 {
	return float64(cycles) / float64(Frequency)
}

// Cycles converts seconds into cycles at the simulated frequency.
func Cycles(seconds float64) uint64 {
	return uint64(seconds * float64(Frequency))
}
