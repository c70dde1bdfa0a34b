package probe

import (
	"math"
	"sort"

	"repro/internal/cache"
)

// Monitor runs PRIME+PROBE over a list of eviction sets. Each probe of a
// set walks its lines, accumulating observed latency; walking doubles as
// the prime for the next sample, exactly as in the paper's Mastik-based
// attack. A set shows "activity" when its probe latency indicates at least
// one of the spy's lines was evicted since the previous probe.
//
// How a probe is timed follows the spy's Strategy. The fine-timer
// attacker times every load (historical behaviour). The amplified
// attacker times each walk as one block — two timer reads around the
// whole walk — so a walk carries a single quantization draw regardless of
// its length, and widens its activity thresholds by the calibrated noise
// spread so idle jitter cannot cross them.
type Monitor struct {
	spy  *Spy
	sets []EvictionSet
	// refs[i] is sets[i].Lines resolved into line refs, the form probeSet
	// walks; the views share one backing array per monitor.
	refs       [][]cache.LineRef
	thresholds []uint64
	// idleMin and idleMax record each set's calibration-pass extremes —
	// the raw material CalibrationOK judges threshold health from.
	idleMin, idleMax []uint64
	// spreadEst is the amplified strategy's per-set local noise-spread
	// estimate (zero for the fine-timer strategy).
	spreadEst []uint64
	// active is the buffer Poll returns, overwritten by the next Poll.
	active []bool
}

// Sample is one probe pass over all monitored sets.
type Sample struct {
	// At is the cycle at which the pass started.
	At uint64
	// Active[i] reports eviction activity on monitored set i.
	Active []bool
}

// NewMonitor builds a monitor and calibrates per-set activity thresholds:
// the idle baseline (all hits) plus a margin derived from the spy's
// calibrated edge and noise floor. A spy whose calibration degenerated
// still gets a monitor (thresholds stay arithmetically sane), but the
// monitor reports it through CalibrationOK instead of probing blind in
// silence.
func NewMonitor(spy *Spy, sets []EvictionSet) *Monitor {
	n := 0
	for _, e := range sets {
		n += len(e.Lines)
	}
	backing := make([]cache.LineRef, 0, n)
	m := &Monitor{
		spy:        spy,
		sets:       sets,
		refs:       make([][]cache.LineRef, len(sets)),
		thresholds: make([]uint64, len(sets)),
		idleMin:    make([]uint64, len(sets)),
		idleMax:    make([]uint64, len(sets)),
		spreadEst:  make([]uint64, len(sets)),
		active:     make([]bool, len(sets)),
	}
	for i, e := range sets {
		from := len(backing)
		backing = m.resolve(backing, e.Lines)
		m.refs[i] = backing[from:len(backing):len(backing)]
		m.recalibrate(i)
	}
	return m
}

// resolve appends the line refs of lines to dst.
func (m *Monitor) resolve(dst []cache.LineRef, lines []uint64) []cache.LineRef {
	for _, a := range lines {
		dst = append(dst, m.spy.cache.Ref(a))
	}
	return dst
}

// recalibrate measures set i's idle baseline and installs its activity
// threshold — the one shared path for initial calibration (NewMonitor)
// and set replacement (ReplaceSet), so the two cannot drift apart.
//
// Fine-timer threshold: idle + edge/2, the historical rule. The margin
// separates one evicted line from an all-hit walk when the timer is
// sharp; its weakness — per-access jitter accumulating across the walk —
// is what CalibrationOK makes explicit.
//
// Amplified threshold: idle + noise spread + edge/2, with the spread
// taken as the larger of the spy's calibrated estimate and a fresh local
// estimate from this calibration's own idle passes. Monitors are built at
// measurement time: an attacker whose offline phase ran under a clean
// timer would otherwise carry a stale (near-zero) spread estimate into a
// coarsened online environment and silently go blind — the exact failure
// mode this strategy exists to kill. A block-timed idle walk exceeds its
// own floor by at most one jitter draw (<= spread), so the threshold is
// uncrossable by idle noise, while an eviction adds at least one full
// LRU-cascade of misses.
func (m *Monitor) recalibrate(i int) {
	edge := m.halfEdge()
	if m.spy.strat.Amplify {
		idle, local := m.calibrateSetAmplified(i)
		spread := m.spy.NoiseSpread()
		if local > spread {
			spread = local
		}
		m.spreadEst[i] = spread
		m.thresholds[i] = idle + spread + edge
		return
	}
	m.thresholds[i] = m.calibrateSet(i) + edge
}

// halfEdge is the calibrated half hit/miss edge (minimum 1 cycle — the
// degenerate-calibration floor that keeps thresholds arithmetically sane;
// the degeneracy itself is reported, not hidden).
func (m *Monitor) halfEdge() uint64 {
	edge := (m.spy.MissLatency() - m.spy.HitLatency()) / 2
	if edge == 0 {
		edge = 1
	}
	return edge
}

// calibrateSet measures the all-hit baseline of a set: one priming pass,
// then the minimum of several probe passes. Taking the minimum keeps a
// packet that happens to land mid-calibration from inflating the baseline
// (an inflated baseline would blind the monitor permanently). The pass
// extremes are recorded for CalibrationOK's pooled jitter estimate.
func (m *Monitor) calibrateSet(i int) uint64 {
	m.probeSet(i)
	idle := m.probeSet(i)
	max := idle
	for pass := 0; pass < 2; pass++ {
		lat := m.probeSet(i)
		if lat < idle {
			idle = lat
		}
		if lat > max {
			max = lat
		}
	}
	m.idleMin[i], m.idleMax[i] = idle, max
	return idle
}

// calibrateSetAmplified is the repeated-measurement baseline: one priming
// pass, then 16 block-timed passes. The minimum is the idle floor; the
// trimmed range (second-largest minus smallest, scaled up for the
// sample-range bias) is a fresh local estimate of the timer's per-reading
// jitter spread. Trimming the single largest pass keeps one packet that
// lands mid-calibration from inflating the spread and deafening the set.
func (m *Monitor) calibrateSetAmplified(i int) (idleFloor, spreadEst uint64) {
	m.probeSet(i)
	const passes = 16
	min, max1, max2 := ^uint64(0), uint64(0), uint64(0)
	for p := 0; p < passes; p++ {
		lat := m.probeSet(i)
		if lat < min {
			min = lat
		}
		switch {
		case lat >= max1:
			max1, max2 = lat, max1
		case lat > max2:
			max2 = lat
		}
	}
	m.idleMin[i], m.idleMax[i] = min, max2
	// E[2nd-max - min] of n uniform draws is (n-2)/(n+1) of the true
	// range; 5/4 undoes the bias for n=16 with a little slack.
	return min, (max2 - min) * 5 / 4
}

// CalibrationOK reports whether this monitor can actually separate idle
// timer jitter from an eviction: the spy's calibration found an edge, AND
// every set's threshold margin clears the jitter the spy calibrated
// offline, AND — because the online timer may be coarser than the one
// calibration saw — the jitter observable in the monitor's own idle
// calibration passes. False means samples from this monitor are noise —
// the explicit signal replacing the old silently-blind behaviour.
// Experiments surface it as the calibration_ok metric.
func (m *Monitor) CalibrationOK() bool {
	if !m.spy.Calibrated() {
		return false
	}
	edge := m.halfEdge()
	if m.spy.strat.Amplify {
		for i := range m.sets {
			// The margin must stay reachable: an eviction's LRU cascade
			// is worth ~lines*2*edge of latency, and the idle floor
			// estimate can itself sit up to ~spread above the true floor.
			// 1.5*spread keeps a worst-case-ish bound without declaring
			// healthy monitors deaf.
			n := float64(len(m.sets[i].Lines))
			if float64(m.spreadEst[i])*1.5+float64(edge) >= n*float64(2*edge) {
				return false
			}
		}
		return true
	}
	// Fine-timer: per-access timing accumulates one jitter draw per line,
	// so an idle pass's jitter sum has sd ~ spread*sqrt(lines)/sqrt(12)
	// against a margin of one half-edge that the min-of-passes baseline
	// has already partially spent. Require ~5 sd of headroom on BOTH
	// jitter estimates: the spy's offline spread, and a pooled online
	// estimate from this monitor's own idle passes (median of per-set
	// maxima minus the global minimum, per line-count — all-hit baselines
	// of equal-length sets are identical, so the pooled range is pure
	// jitter; the median keeps a packet that polluted one set's
	// calibration from faking coarseness). Below that headroom the
	// monitor WILL read idle jitter as activity — the blindness that
	// used to be silent.
	perDraw := float64(m.spy.NoiseSpread())
	maxima := map[int][]uint64{}
	minByLen := map[int]uint64{}
	for i := range m.sets {
		n := len(m.sets[i].Lines)
		maxima[n] = append(maxima[n], m.idleMax[i])
		if lo, ok := minByLen[n]; !ok || m.idleMin[i] < lo {
			minByLen[n] = m.idleMin[i]
		}
	}
	pooled := map[int]uint64{}
	for n, xs := range maxima {
		sort.Slice(xs, func(a, b int) bool { return xs[a] < xs[b] })
		pooled[n] = xs[len(xs)/2] - minByLen[n]
	}
	for i := range m.sets {
		n := len(m.sets[i].Lines)
		if perDraw*math.Sqrt(float64(n))*1.5 > float64(edge) {
			return false
		}
		if pooled[n]*17/10 > edge {
			return false
		}
	}
	return true
}

// ReplaceSet swaps monitored set i (the GET_CLEAN_SAMPLES fallback: an
// always-active set is replaced by the same group's second-block set) and
// recalibrates its threshold through the same path NewMonitor used.
func (m *Monitor) ReplaceSet(i int, e EvictionSet) {
	m.sets[i] = e
	m.refs[i] = m.resolve(m.refs[i][:0], e.Lines)
	m.recalibrate(i)
}

// probeSet walks set i and returns the observed latency of the walk:
// per-access timer reads summed (fine-timer strategy) or one block
// reading (amplified strategy).
func (m *Monitor) probeSet(i int) uint64 {
	refs := m.refs[i]
	reads := len(refs)
	if m.spy.strat.Amplify {
		reads = 1
	}
	return m.spy.timeWalk(refs, m.spy.identityWalk(len(refs)), reads)
}

// ProbeOnce syncs the world and probes every monitored set once. The
// sample's slice is the caller's.
func (m *Monitor) ProbeOnce() Sample {
	s := Sample{At: m.spy.clock.Now(), Active: make([]bool, len(m.sets))}
	m.probeAll(s.Active)
	return s
}

// Poll is ProbeOnce for a caller that keeps only the activity bits: it
// returns them in a monitor-owned buffer that the next Poll overwrites,
// so a poll allocates nothing.
func (m *Monitor) Poll() []bool {
	m.probeAll(m.active)
	return m.active
}

// probeAll syncs the world before each set's probe and records each set's
// activity.
func (m *Monitor) probeAll(active []bool) {
	for i := range m.sets {
		m.spy.tb.Sync()
		active[i] = m.probeSet(i) > m.thresholds[i]
	}
}

// ProbeSingle probes only set i (used when chasing a known sequence, where
// the whole point is to probe one expected buffer at a time).
func (m *Monitor) ProbeSingle(i int) bool {
	tb := m.spy.Testbed()
	tb.Sync()
	return m.probeSet(i) > m.thresholds[i]
}

// Collect takes n samples spaced interval cycles apart (the paper's
// repeated_probe). The spacing is between sample starts; if a pass takes
// longer than the interval the next one starts immediately. The samples'
// activity bits share one backing array, the caller's.
func (m *Monitor) Collect(n int, interval uint64) []Sample {
	tb := m.spy.Testbed()
	out := make([]Sample, n)
	bits := make([]bool, n*len(m.sets))
	next := tb.Clock().Now()
	for k := range out {
		tb.IdleTo(next)
		active := bits[k*len(m.sets) : (k+1)*len(m.sets) : (k+1)*len(m.sets)]
		out[k] = Sample{At: m.spy.clock.Now(), Active: active}
		m.probeAll(active)
		next += interval
		if now := tb.Clock().Now(); next < now {
			next = now
		}
	}
	return out
}

// ActivityRate returns, per monitored set, the fraction of samples with
// activity — the paper's activity() measure used to spot always-active
// sets.
func ActivityRate(samples []Sample) []float64 {
	if len(samples) == 0 {
		return nil
	}
	n := len(samples[0].Active)
	out := make([]float64, n)
	for _, s := range samples {
		for i, a := range s.Active {
			if a {
				out[i]++
			}
		}
	}
	for i := range out {
		out[i] /= float64(len(samples))
	}
	return out
}
