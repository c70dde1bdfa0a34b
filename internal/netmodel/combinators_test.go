package netmodel

import (
	"testing"

	"repro/internal/sim"
)

func TestPoissonSourceRateAndSizes(t *testing.T) {
	wire := NewWire(GigabitRate)
	rng := sim.NewRNG(1)
	sizes := []int{64, 256, 1514}
	const n = 5000
	src := NewPoissonSource(wire, sizes, 100_000, rng, 0, n)
	frames := Collect(src, n+1)
	if len(frames) != n {
		t.Fatalf("got %d frames want %d", len(frames), n)
	}
	seen := map[int]int{}
	last := uint64(0)
	for i, f := range frames {
		if err := f.Validate(); err != nil {
			t.Fatal(err)
		}
		if !f.Known {
			t.Fatal("poisson traffic must be ordinary known protocol traffic")
		}
		if f.Arrival < last {
			t.Fatalf("arrival order violated at %d", i)
		}
		last = f.Arrival
		seen[f.Size]++
	}
	for _, s := range sizes {
		if seen[s] == 0 {
			t.Errorf("size %d never drawn", s)
		}
	}
	// Mean rate within 10% of nominal: n frames over the observed span.
	rate := float64(n) / sim.Seconds(frames[n-1].Arrival)
	if rate < 90_000 || rate > 110_000 {
		t.Errorf("realized rate %.0f pps, want ~100k", rate)
	}
}

func TestPoissonSourceEmptyPaletteFallsBack(t *testing.T) {
	src := NewPoissonSource(NewWire(GigabitRate), nil, 1000, sim.NewRNG(1), 0, 3)
	for f, ok := src.Next(); ok; f, ok = src.Next() {
		if f.Size != MinFrameSize {
			t.Fatalf("empty palette should emit minimum frames, got %d", f.Size)
		}
	}
}
