package netmodel

import "testing"

// sliceSource replays a fixed frame slice — the minimal Source for
// adversarial-input tests, bypassing wire pacing entirely.
type sliceSource struct {
	frames []Frame
	idx    int
}

func (s *sliceSource) Next() (Frame, bool) {
	if s.idx >= len(s.frames) {
		return Frame{}, false
	}
	f := s.frames[s.idx]
	s.idx++
	return f, true
}

// decodeSources carves fuzz bytes into 1..4 individually arrival-ordered
// sources with globally unique Seq numbers. Each input byte contributes
// one frame: the low bits pick the per-frame arrival gap so streams
// overlap, collide, and stall in adversarial patterns.
func decodeSources(data []byte) []*sliceSource {
	if len(data) == 0 {
		return nil
	}
	n := int(data[0])%4 + 1
	data = data[1:]
	srcs := make([]*sliceSource, n)
	for i := range srcs {
		srcs[i] = &sliceSource{}
	}
	arrivals := make([]uint64, n)
	for i, b := range data {
		si := i % n
		arrivals[si] += uint64(b % 32) // gap 0..31: heavy same-cycle collisions
		srcs[si].frames = append(srcs[si].frames, Frame{
			Seq:     uint64(i),
			Size:    MinFrameSize,
			Arrival: arrivals[si],
		})
	}
	return srcs
}

// FuzzMixSourceOrdering checks the MixSource invariants on adversarial
// stream shapes: the merged output is nondecreasing in arrival, conserves
// every input frame exactly once, and terminates.
func FuzzMixSourceOrdering(f *testing.F) {
	f.Add([]byte{2, 1, 1, 1, 1})
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 0, 0})                    // all same-cycle
	f.Add([]byte{3, 31, 0, 5, 31, 0, 5, 31, 0, 5, 1, 2, 3})     // skewed rates
	f.Add([]byte{1, 7, 7, 7})                                   // single source
	f.Add([]byte{2, 31, 31, 31, 31, 0, 0, 0, 0, 15, 15, 15, 1}) // bursts
	f.Fuzz(func(t *testing.T, data []byte) {
		srcs := decodeSources(data)
		if len(srcs) == 0 {
			return
		}
		total := 0
		for _, s := range srcs {
			total += len(s.frames)
		}
		mixed := make([]Source, len(srcs))
		for i, s := range srcs {
			mixed[i] = s
		}
		out := Collect(NewMixSource(mixed...), total+1)
		if len(out) != total {
			t.Fatalf("frame conservation violated: %d in, %d out", total, len(out))
		}
		seen := make(map[uint64]bool, total)
		for i, fr := range out {
			if i > 0 && fr.Arrival < out[i-1].Arrival {
				t.Fatalf("arrival order violated at %d: %d after %d", i, fr.Arrival, out[i-1].Arrival)
			}
			if seen[fr.Seq] {
				t.Fatalf("frame %d emitted twice", fr.Seq)
			}
			seen[fr.Seq] = true
		}
	})
}
