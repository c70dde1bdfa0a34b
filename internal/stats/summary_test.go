package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("mean %v want 5", m)
	}
	if s := StdDev(xs); math.Abs(s-2.138) > 0.01 {
		t.Errorf("stddev %v want ~2.138", s)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Error("degenerate inputs should return 0")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 2, 9, 2})
	if s.N != 4 || s.Mean != 4.25 || s.Min != 2 || s.Max != 9 {
		t.Errorf("summary wrong: %+v", s)
	}
	if math.Abs(s.StdDev-StdDev([]float64{4, 2, 9, 2})) > 1e-12 {
		t.Errorf("stddev mismatch: %v", s.StdDev)
	}
	if z := Summarize(nil); z != (Summary{}) {
		t.Errorf("empty input must give zero Summary: %+v", z)
	}
	one := Summarize([]float64{3})
	if one.N != 1 || one.Mean != 3 || one.StdDev != 0 || one.Min != 3 || one.Max != 3 {
		t.Errorf("single-element summary wrong: %+v", one)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25}, {75, 7.75},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("P%v=%v want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestPercentileMonotonic(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := Percentile(xs, p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEmpiricalCI(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	ci := EmpiricalCI(xs, 0.90)
	if ci.Mean != 50 {
		t.Errorf("mean %v", ci.Mean)
	}
	if ci.Low >= ci.Mean || ci.High <= ci.Mean {
		t.Errorf("interval [%v,%v] should straddle mean", ci.Low, ci.High)
	}
	single := EmpiricalCI([]float64{3}, 0.95)
	if single.Low != 3 || single.High != 3 {
		t.Errorf("single-element CI should collapse: %+v", single)
	}
}

func TestHistogram(t *testing.T) {
	h := Histogram([]int{0, 1, 1, 2, 2, 2})
	if h[0] != 1 || h[1] != 2 || h[2] != 3 {
		t.Errorf("histogram wrong: %v", h)
	}
}
