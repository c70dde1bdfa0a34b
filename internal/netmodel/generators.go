package netmodel

import "repro/internal/sim"

// Source produces frames in arrival order. Generators are iterators rather
// than materialized slices because channel-capacity experiments send
// hundreds of thousands of frames.
type Source interface {
	// Next returns the next frame; ok=false when the stream is exhausted.
	Next() (Frame, bool)
}

// ConstantSource emits fixed-size frames at a fixed packet rate starting at
// a given cycle — the broadcast streams of §III-B (Fig 7, Fig 8).
type ConstantSource struct {
	wire   *Wire
	size   int
	period uint64
	nextAt uint64
	remain int
}

// NewConstantSource emits count frames of the given size at packetRate
// frames/second beginning at cycle start. count < 0 means unbounded.
func NewConstantSource(wire *Wire, size int, packetRate float64, start uint64, count int) *ConstantSource {
	return &ConstantSource{
		wire:   wire,
		size:   size,
		period: sim.CyclesPerSecond(packetRate),
		nextAt: start,
		remain: count,
	}
}

// Next implements Source.
func (s *ConstantSource) Next() (Frame, bool) {
	if s.remain == 0 {
		return Frame{}, false
	}
	if s.remain > 0 {
		s.remain--
	}
	f := s.wire.Send(s.size, s.nextAt, false)
	s.nextAt += s.period
	return f, true
}

// TraceSource replays an explicit (size, gap) trace — the web-traffic
// replays of §V. Gaps are cycles between consecutive sends.
type TraceSource struct {
	wire   *Wire
	sizes  []int
	gaps   []uint64
	idx    int
	nextAt uint64
}

// NewTraceSource replays sizes[i] with gaps[i] cycles before each frame
// (gaps may be shorter than len(sizes); missing entries are zero).
func NewTraceSource(wire *Wire, sizes []int, gaps []uint64, start uint64) *TraceSource {
	return &TraceSource{wire: wire, sizes: sizes, gaps: gaps, nextAt: start}
}

// Next implements Source.
func (s *TraceSource) Next() (Frame, bool) {
	if s.idx >= len(s.sizes) {
		return Frame{}, false
	}
	if s.idx < len(s.gaps) {
		s.nextAt += s.gaps[s.idx]
	}
	f := s.wire.Send(s.sizes[s.idx], s.nextAt, true)
	s.nextAt = f.Arrival
	s.idx++
	return f, true
}

// ReorderingSource wraps a Source and swaps adjacent frames with a
// rate-dependent probability, modeling the out-of-order arrivals the paper
// observes at 640 kbps (Fig 12d: "the error rate jumps at 640 kbps because
// at that speed the packets start to arrive out-of-order").
type ReorderingSource struct {
	inner   Source
	rng     *sim.RNG
	p       float64
	pending *Frame
}

// NewReorderingSource swaps adjacent frames with probability p.
func NewReorderingSource(inner Source, p float64, rng *sim.RNG) *ReorderingSource {
	return &ReorderingSource{inner: inner, rng: rng, p: p}
}

// Next implements Source. A swap exchanges the sizes of two adjacent
// frames (their DMA order is what the spy observes, so swapping payload
// order while keeping arrival slots models NIC-queue reordering).
func (s *ReorderingSource) Next() (Frame, bool) {
	if s.pending != nil {
		f := *s.pending
		s.pending = nil
		return f, true
	}
	f, ok := s.inner.Next()
	if !ok {
		return Frame{}, false
	}
	if s.p > 0 && s.rng.Bernoulli(s.p) {
		g, ok2 := s.inner.Next()
		if ok2 {
			f.Size, g.Size = g.Size, f.Size
			s.pending = &g
		}
	}
	return f, true
}

// ReorderProbabilityAt models NIC-queue reordering as a function of the
// sender's packet rate: negligible at moderate rates, ramping up once the
// rate approaches the regime where the paper observed packets "start to
// arrive out-of-order" (§IV-c, the Fig 12d error jump at 640 kbps — about
// 400k packets/second of covert symbols).
func ReorderProbabilityAt(packetRate float64) float64 {
	const onset = 250_000.0
	if packetRate <= onset {
		return 0
	}
	p := (packetRate - onset) / 400_000 * 0.3
	if p > 0.3 {
		p = 0.3
	}
	return p
}

// PoissonSource emits frames with exponential inter-arrival gaps at a mean
// rate, drawing each frame's size uniformly from a palette — the memoryless
// background traffic of a server handling many independent clients. Frames
// are Known (ordinary protocol traffic the receiving kernel processes), so
// they exercise the driver's full copy/fragment path, unlike the attack's
// dropped broadcast streams.
type PoissonSource struct {
	wire    *Wire
	sizes   []int
	meanGap float64
	rng     *sim.RNG
	nextAt  uint64
	remain  int
}

// NewPoissonSource emits count frames (count < 0 means unbounded) at a mean
// rate of rate frames/second beginning around cycle start. Sizes must be
// non-empty; a single-element palette gives fixed-size Poisson traffic.
func NewPoissonSource(wire *Wire, sizes []int, rate float64, rng *sim.RNG, start uint64, count int) *PoissonSource {
	if len(sizes) == 0 {
		sizes = []int{MinFrameSize}
	}
	return &PoissonSource{
		wire:    wire,
		sizes:   sizes,
		meanGap: float64(sim.CyclesPerSecond(rate)),
		rng:     rng,
		nextAt:  start,
		remain:  count,
	}
}

// Next implements Source.
func (s *PoissonSource) Next() (Frame, bool) {
	if s.remain == 0 {
		return Frame{}, false
	}
	if s.remain > 0 {
		s.remain--
	}
	s.nextAt += uint64(s.rng.ExpFloat64()*s.meanGap + 0.5)
	size := s.sizes[s.rng.Intn(len(s.sizes))]
	return s.wire.Send(size, s.nextAt, true), true
}

// MixSource interleaves multiple sources in arrival order (victim traffic
// plus background noise traffic). Sources must individually be in arrival
// order.
type MixSource struct {
	sources []Source
	heads   []*Frame
}

// NewMixSource merges the given sources.
func NewMixSource(sources ...Source) *MixSource {
	return &MixSource{sources: sources, heads: make([]*Frame, len(sources))}
}

// Next implements Source.
func (m *MixSource) Next() (Frame, bool) {
	bestIdx := -1
	for i, s := range m.sources {
		if m.heads[i] == nil {
			if f, ok := s.Next(); ok {
				m.heads[i] = &f
			}
		}
		if m.heads[i] != nil && (bestIdx < 0 || m.heads[i].Arrival < m.heads[bestIdx].Arrival) {
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		return Frame{}, false
	}
	f := *m.heads[bestIdx]
	m.heads[bestIdx] = nil
	return f, true
}

// Collect drains up to max frames from a source into a slice (testing and
// short traces).
func Collect(s Source, max int) []Frame {
	var out []Frame
	for len(out) < max {
		f, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, f)
	}
	return out
}
