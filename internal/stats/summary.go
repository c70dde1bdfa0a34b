package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator) of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, v := range xs {
		d := v - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// Summary reduces a metric's observations across independent trials into
// the aggregate the experiment runner reports: mean, sample standard
// deviation, and the observed range.
type Summary struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// Summarize computes the Summary of xs. An empty slice yields the zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Mean: Mean(xs), StdDev: StdDev(xs), Min: xs[0], Max: xs[0]}
	for _, v := range xs[1:] {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	return s
}

// CI holds an empirical interval around a mean, in the style of the paper's
// Table I which reports a value with a [low, high] interval.
type CI struct {
	Mean, Low, High float64
}

// EmpiricalCI returns the mean together with the empirical p-quantile
// interval of the observations (e.g. p=0.95 gives the [2.5%, 97.5%]
// interval). With fewer than 2 observations the interval collapses to the
// mean.
func EmpiricalCI(xs []float64, p float64) CI {
	m := Mean(xs)
	if len(xs) < 2 {
		return CI{Mean: m, Low: m, High: m}
	}
	lo := Percentile(xs, (1-p)/2*100)
	hi := Percentile(xs, (1+p)/2*100)
	return CI{Mean: m, Low: lo, High: hi}
}

// Percentile returns the p-th percentile (0-100) of xs using linear
// interpolation between closest ranks. It copies and sorts internally.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Histogram counts occurrences of each value in xs, returning a map from
// value to count. Used for the Fig 5/Fig 6 buffer-to-set mapping plots.
func Histogram(xs []int) map[int]int {
	h := make(map[int]int)
	for _, v := range xs {
		h[v]++
	}
	return h
}
