package main

import (
	"sort"
	"time"

	"repro/internal/stats"
)

// clock is the benchmark's only wall-clock read. Every host-time number it
// reports starts here, so the determinism lint sees one reasoned exception.
func clock() time.Time {
	return time.Now() //packetlint:allow host-time measurement is the benchmark's purpose; no reading reaches simulated state or report bytes
}

// since is the seconds elapsed from t.
func since(t time.Time) float64 { return clock().Sub(t).Seconds() }

// summary is one metric over the repetitions of a run: the median and
// quartiles comparisons use, and the sample count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// summarize reduces samples to their median and quartiles. The quartiles
// use the exclusive method (Python's statistics.quantiles default), so a
// spread computed from the history matches one computed by any script
// that reads it.
func summarize(xs []float64, unit string) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), Unit: unit}
	switch len(s) {
	case 0:
		return out
	case 1:
		out.Median, out.Q1, out.Q3 = s[0], s[0], s[0]
		return out
	}
	q := func(i int) float64 {
		n, m := 4, len(s)+1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	out.Q1, out.Median, out.Q3 = q(1), stats.Percentile(s, 50), q(3)
	return out
}

// median is the 50th percentile of xs (0 for no samples).
func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// tail returns the highest whole percentile that still has at least ten
// samples beyond it, and the value there. With ten samples or fewer no
// percentile qualifies and the minimum (percentile 0) is returned.
func tail(xs []float64) (pct, value float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	p := float64(int(100 * (1 - 10/float64(len(xs)))))
	if p < 0 {
		p = 0
	}
	return p, stats.Percentile(xs, p)
}
