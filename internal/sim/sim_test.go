package sim

import (
	"math"
	"testing"
)

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatal("clock must start at 0")
	}
	c.Advance(100)
	c.AdvanceTo(250)
	if c.Now() != 250 {
		t.Errorf("now=%d want 250", c.Now())
	}
}

func TestClockRewindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AdvanceTo into the past must panic")
		}
	}()
	c := NewClock()
	c.Advance(10)
	c.AdvanceTo(5)
}

func TestRateConversions(t *testing.T) {
	// 0.2 Mpps at 3.3 GHz is 16,500 cycles per packet (paper Table I rate).
	if got := CyclesPerSecond(200_000); got != 16_500 {
		t.Errorf("0.2Mpps period = %d want 16500", got)
	}
	if got := CyclesPerSecond(8000); got != 412_500 {
		t.Errorf("8k probes/s period = %d want 412500", got)
	}
	if CyclesPerSecond(0) != 0 {
		t.Error("zero rate must give zero period")
	}
	if Seconds(Frequency) != 1.0 {
		t.Error("Frequency cycles should be 1 second")
	}
	if Cycles(0.5) != Frequency/2 {
		t.Error("0.5s should be half of Frequency")
	}
}

func TestDeriveDecorrelates(t *testing.T) {
	a := Derive(1, "alloc")
	b := Derive(1, "noise")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Intn(1000) == b.Intn(1000) {
			same++
		}
	}
	if same > 10 {
		t.Errorf("streams look correlated: %d/100 collisions", same)
	}
	// Same label, same seed must reproduce.
	c := Derive(1, "alloc")
	d := Derive(1, "alloc")
	for i := 0; i < 10; i++ {
		if c.Int63() != d.Int63() {
			t.Fatal("same (seed,label) must reproduce")
		}
	}
}

// TestDeriveSeedTrialStreamsDecorrelated checks the property the
// experiment runner relies on: RNG streams seeded from per-trial labels
// of the same experiment are pairwise decorrelated.
func TestDeriveSeedTrialStreamsDecorrelated(t *testing.T) {
	const trials, draws = 8, 200
	streams := make([][]float64, trials)
	for ti := range streams {
		r := NewRNG(DeriveSeed(1, "fig5/trial"+string(rune('0'+ti))))
		xs := make([]float64, draws)
		for i := range xs {
			xs[i] = r.Float64()
		}
		streams[ti] = xs
	}
	for a := 0; a < trials; a++ {
		for b := a + 1; b < trials; b++ {
			// Pearson correlation of uniform draws; independent streams
			// stay near 0 (|r| < 0.2 is generous at n=200).
			var sa, sb, saa, sbb, sab float64
			for i := 0; i < draws; i++ {
				x, y := streams[a][i], streams[b][i]
				sa += x
				sb += y
				saa += x * x
				sbb += y * y
				sab += x * y
			}
			n := float64(draws)
			cov := sab/n - sa/n*sb/n
			va := saa/n - sa/n*sa/n
			vb := sbb/n - sb/n*sb/n
			if r := cov / math.Sqrt(va*vb); math.Abs(r) > 0.2 {
				t.Errorf("trials %d,%d correlated: r=%.3f", a, b, r)
			}
		}
	}
	// DeriveSeed must reproduce and must feed Derive.
	if DeriveSeed(1, "x") != DeriveSeed(1, "x") {
		t.Error("DeriveSeed must be deterministic")
	}
	if Derive(1, "x").Int63() != NewRNG(DeriveSeed(1, "x")).Int63() {
		t.Error("Derive must be NewRNG over DeriveSeed")
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := NewRNG(3)
	if r.Bernoulli(0) {
		t.Error("p=0 must be false")
	}
	if !r.Bernoulli(1) {
		t.Error("p=1 must be true")
	}
}
