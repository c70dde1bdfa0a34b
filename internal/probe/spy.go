// Package probe is the attacker's toolkit — the reproduction's analog of
// the Mastik micro-architectural side-channel toolkit the paper uses: spy
// memory management, latency calibration, eviction-set construction by
// conflict testing, and PRIME+PROBE monitors over chosen cache sets.
//
// Everything in this package plays by the attacker's rules: it learns only
// from access latencies (with timer noise applied), never from simulator
// oracles. Physical addresses appear in the implementation because the
// spy's loads must be translated eventually, but no decision is made on
// address bits the attacker could not know (page-offset bits only).
// Monitors and the eviction-set builder load their lines through resolved
// line refs (cache.LineRef): the simulated hardware's translation of an
// address, cached so a line loaded over and over skips the set hashing.
// A ref is not attacker knowledge, and no decision here reads the set or
// way it holds.
//
// The spy comes in two flavours selected by a Strategy: the paper's
// fine-timer attacker, and a coarse-timer-resilient variant built on
// repeated-measurement calibration and amplified probes (see Strategy).
package probe

import (
	"fmt"
	"sort"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// Spy is the attacker process: a user-space tenant with a mapped buffer and
// a timer, and nothing else.
type Spy struct {
	tb     *testbed.Testbed
	region *mem.Region
	strat  Strategy
	// cache and clock are the testbed's, cached at construction: every load
	// the spy ever issues goes through them, and the accessor round-trip per
	// access is measurable across a paper-scale probe schedule.
	cache *cache.Cache
	clock *sim.Clock

	hitLat, missLat uint64 // calibrated latencies (observed, incl. noise)
	// degenerate records that calibration failed to find a separating
	// hit/miss edge. It is an explicit signal — the old behaviour was to
	// silently clamp the edge to 1 cycle and let every downstream monitor
	// go blind without anyone being told.
	degenerate bool
	// spread is the calibrated estimate of the timer's jitter range (the
	// width of the observed hit-latency distribution, ~2N for one-sided
	// jitter in [0, 2N]). Zero with a perfect timer.
	spread uint64
	// factor is the amplification factor K the conflict test uses, chosen
	// adaptively from spread and the calibrated edge (1 = unamplified).
	factor int

	// refs is Evicts' reused buffer: its set and victim resolved into
	// line refs, which keep their way hints while a caller repeats the
	// same lines. identity is the walk 0, 1, 2, ... that Evicts and every
	// monitor walk their refs in (see identityWalk).
	refs     []cache.LineRef
	identity []int32
}

// overheadPerAccess is the loop overhead in cycles charged per load on
// top of the memory latency.
const overheadPerAccess = 4

// NewSpy maps pages of spy memory and calibrates hit/miss latencies with
// the fine-timer strategy (the paper's attacker).
func NewSpy(tb *testbed.Testbed, pages int) (*Spy, error) {
	return NewSpyStrategy(tb, pages, DefaultStrategy())
}

// NewSpyStrategy maps pages of spy memory and calibrates under the given
// measurement strategy. The attack layers above (chase, covert,
// fingerprint) inherit the strategy through the spy: every Monitor they
// build probes and thresholds the way the spy's strategy prescribes.
func NewSpyStrategy(tb *testbed.Testbed, pages int, strat Strategy) (*Spy, error) {
	r, err := mem.NewRegion(tb.Alloc(), pages)
	if err != nil {
		return nil, fmt.Errorf("probe: spy region: %w", err)
	}
	s := &Spy{tb: tb, region: r, strat: strat, cache: tb.Cache(), clock: tb.Clock()}
	s.calibrate()
	return s, nil
}

// SpyState is the spy's post-calibration state: its mapped pages, its
// measurement strategy, and the measured latency edge with its quality
// signals. Together with a machine snapshot it lets a warm start rebind an
// identical spy to a restored machine without re-running region allocation
// or calibration (both already baked into the snapshot).
type SpyState struct {
	Pages           []mem.Addr
	HitLat, MissLat uint64
	Strategy        Strategy
	Degenerate      bool
	Spread          uint64
	Factor          int
}

// State captures the spy for a later Rebind.
func (s *Spy) State() SpyState {
	return SpyState{
		Pages:      s.region.PageAddrs(),
		HitLat:     s.hitLat,
		MissLat:    s.missLat,
		Strategy:   s.strat,
		Degenerate: s.degenerate,
		Spread:     s.spread,
		Factor:     s.factor,
	}
}

// Rebind rebinds a captured spy to a testbed whose machine snapshot
// already accounts for the spy's pages (they are marked used in the
// restored allocator) and calibration side effects (clock advance, timer
// draws); no allocation or calibration happens here. The captured state
// is copied over the spy, pages into the region's reused backing array
// (a zero Spy gets a new region). It serves the rig-pool lease path,
// where a pooled spy is rebound to a restored machine once per warm
// trial and must not allocate. The testbed must be the machine the
// accompanying snapshot was restored into.
func (s *Spy) Rebind(tb *testbed.Testbed, st SpyState) {
	if s.region == nil {
		s.region = new(mem.Region)
	}
	s.tb = tb
	s.cache = tb.Cache()
	s.clock = tb.Clock()
	s.region.SetPages(st.Pages)
	s.strat = st.Strategy
	s.hitLat = st.HitLat
	s.missLat = st.MissLat
	s.degenerate = st.Degenerate
	s.spread = st.Spread
	s.factor = st.Factor
}

// Pages returns the number of pages in the spy's buffer.
func (s *Spy) Pages() int { return s.region.Pages() }

// Testbed exposes the world for higher attack layers (chase, covert).
func (s *Spy) Testbed() *testbed.Testbed { return s.tb }

// Strategy returns the spy's measurement strategy.
func (s *Spy) Strategy() Strategy { return s.strat }

// PageBase returns the spy's address for the base of its i-th page. The
// value is the translated physical address (what the LLC sees); the spy
// manipulates it only as an opaque handle.
func (s *Spy) PageBase(i int) uint64 {
	return uint64(s.region.Translate(uint64(i) * mem.PageSize))
}

// Touch loads one line, advancing simulated time by the true latency plus
// loop overhead, and returns the latency as observed through the timer.
func (s *Spy) Touch(addr uint64) uint64 {
	_, lat := s.cache.Read(addr)
	s.clock.Advance(lat + overheadPerAccess)
	return s.tb.TimerRead(lat)
}

// touchRef is Touch of a resolved line: the timed load of a single
// victim.
func (s *Spy) touchRef(r *cache.LineRef) uint64 {
	return s.tb.TimerRead(s.loadRaw(r))
}

// loadRaw performs a load and returns its TRUE latency without reading the
// timer: the untimed load of a single victim (the attacker primes without
// looking at the clock).
func (s *Spy) loadRaw(r *cache.LineRef) uint64 {
	_, lat := s.cache.ReadRef(r)
	s.clock.Advance(lat + overheadPerAccess)
	return lat
}

// loadWalk loads refs[walk[0]], refs[walk[1]], ... in order, untimed, and
// returns the walk's TRUE latency: the cache walks them in one call.
func (s *Spy) loadWalk(refs []cache.LineRef, walk []int32) uint64 {
	return s.cache.LoadWalk(refs, walk, overheadPerAccess)
}

// timeWalk is loadWalk observed through the timer, read `reads` times:
// once per load for a fine-timer walk, which sums one jitter draw per
// line, or once for a block-timed walk — two timer reads around a block
// of work carry one quantization error regardless of the block's length.
// The timer is drawn only by timer reads, so drawing the walk's jitters
// after its loads yields the stream a read after every load would.
func (s *Spy) timeWalk(refs []cache.LineRef, walk []int32, reads int) uint64 {
	return s.tb.TimerReads(s.loadWalk(refs, walk), reads)
}

// identityWalk returns the walk 0, 1, ..., n-1, grown in a spy-owned
// buffer that only ever holds the identity.
func (s *Spy) identityWalk(n int) []int32 {
	for len(s.identity) < n {
		s.identity = append(s.identity, int32(len(s.identity)))
	}
	return s.identity[:n]
}

// calibrate measures the hit/miss latency edge the way attackers do: time
// a load twice (second one hits), and time first-touch loads (cold
// misses). The amplified strategy takes more samples and estimates from
// the distributions; both paths record explicit quality signals instead of
// silently patching a degenerate edge.
func (s *Spy) calibrate() {
	if s.strat.Amplify {
		s.calibrateAmplified()
		return
	}
	probeAddr := s.PageBase(0) + 512 // scratch line, offset irrelevant
	s.Touch(probeAddr)
	const trials = fineCalTrials
	hits := make([]uint64, trials)
	for i := range hits {
		hits[i] = s.Touch(probeAddr)
	}
	misses := make([]uint64, trials)
	for i := range misses {
		// Distinct cold lines in the scratch page area.
		misses[i] = s.Touch(s.PageBase(0) + 1024 + uint64(i*64))
	}
	var hitSum, missSum uint64
	for i := 0; i < trials; i++ {
		hitSum += hits[i]
		missSum += misses[i]
	}
	// Rounded means: the historical truncating division biased both levels
	// low by up to (trials-1)/trials of a cycle, skewing the hit/miss
	// midpoint under one-sided jitter.
	s.hitLat = (hitSum + trials/2) / trials
	s.missLat = (missSum + trials/2) / trials
	s.spread = spreadOf(hits)
	s.factor = 1
	if s.missLat <= s.hitLat {
		// Degenerate calibration: no separating edge. Keep a sane 1-cycle
		// threshold so downstream arithmetic stays defined, but say so —
		// NewMonitor and the experiment layer surface the signal instead
		// of probing blind.
		s.degenerate = true
		s.missLat = s.hitLat + 1
	}
}

// calibrateAmplified is the repeated-measurement calibration:
// amplifiedCalTrials timed loads per point, medians for the levels
// (one-sided jitter shifts both medians equally, so their difference
// estimates the true edge), and the hit distribution's width as the timer
// noise-floor estimate. The conflict-test amplification factor K is then
// chosen so that K half-edges of signal clear the jitter of K averaged
// readings: the residual noise of a K-round average shrinks ~sqrt(K), so
// K grows quadratically with the noise floor, capped at maxFactor.
func (s *Spy) calibrateAmplified() {
	trials := amplifiedCalTrials
	// Cold lines live at page offsets [1024, 2048) — 16 per page, below the
	// block offsets any monitor watches — across as many pages as needed.
	if max := s.region.Pages() * 16; trials > max {
		trials = max
	}
	if trials < 8 {
		trials = 8
	}
	probeAddr := s.PageBase(0) + 512
	s.Touch(probeAddr)
	hits := make([]uint64, trials)
	for i := range hits {
		hits[i] = s.Touch(probeAddr)
	}
	misses := make([]uint64, trials)
	for i := range misses {
		page := (i / 16) % s.region.Pages()
		misses[i] = s.Touch(s.PageBase(page) + 1024 + uint64(i%16)*64)
	}
	s.hitLat = median(hits)
	s.missLat = median(misses)
	s.spread = spreadOf(hits)
	if s.missLat <= s.hitLat {
		s.degenerate = true
		s.missLat = s.hitLat + 1
		s.factor = maxFactor
		return
	}
	halfEdge := (s.missLat - s.hitLat) / 2
	if halfEdge == 0 {
		halfEdge = 1
	}
	// K such that K*halfEdge > ~3.5 standard deviations of the summed
	// jitter of K readings: sd = sqrt(K) * spread/sqrt(12), so
	// K > (3.5/sqrt(12))^2 * (spread/halfEdge)^2 ~= (spread/halfEdge)^2.
	ratio := (s.spread + halfEdge - 1) / halfEdge
	k := int(ratio * ratio)
	if k < 1 {
		k = 1
	}
	if k > maxFactor {
		k = maxFactor
	}
	s.factor = k
}

// HitLatency returns the calibrated LLC-hit latency as the spy observes it.
func (s *Spy) HitLatency() uint64 { return s.hitLat }

// MissLatency returns the calibrated memory latency as the spy observes it.
func (s *Spy) MissLatency() uint64 { return s.missLat }

// Calibrated reports whether calibration found a separating hit/miss edge.
// False means the edge estimate is a placeholder and every threshold
// derived from it is untrustworthy — the explicit replacement for the old
// silent missLat = hitLat+1 fallback.
func (s *Spy) Calibrated() bool { return !s.degenerate }

// NoiseSpread returns the calibrated estimate of the timer's jitter range
// in cycles (~2N for one-sided jitter of magnitude N; 0 for a sharp
// timer). Monitors use it to set thresholds the jitter cannot cross and to
// detect when they cannot.
func (s *Spy) NoiseSpread() uint64 { return s.spread }

// AmplificationFactor returns the adaptive K the conflict test uses
// (1 = unamplified; meaningful only for the amplified strategy).
func (s *Spy) AmplificationFactor() int {
	if s.factor < 1 {
		return 1
	}
	return s.factor
}

// Evicts reports whether accessing every address in set evicts victim:
// load victim, walk the set, reload victim and compare against the
// hit/miss midpoint. This is the conflict test eviction-set construction
// is built from. Positives are confirmed with a retrial because background
// noise can evict the victim by accident.
//
// The amplified strategy repeats the (walk, reload) round K times per
// trial and averages the timed reloads: if the set evicts the victim,
// every round's reload misses, so the latency delta grows linearly in K
// while the one-sided timer jitter of the K readings averages down
// ~sqrt(K). K comes from the calibrated noise floor (AmplificationFactor).
func (s *Spy) Evicts(set []uint64, victim uint64) bool {
	s.refs = s.refs[:0]
	for _, a := range set {
		s.refs = append(s.refs, s.cache.Ref(a))
	}
	s.refs = append(s.refs, s.cache.Ref(victim))
	return s.conflict(s.refs, s.identityWalk(len(set)), int32(len(set)))
}

// conflict is the conflict test of Evicts over resolved lines: the set is
// walk, as indices into refs, and the victim is refs[v].
func (s *Spy) conflict(refs []cache.LineRef, walk []int32, v int32) bool {
	victim := &refs[v]
	pos := 0
	for trial := 0; trial < 3; trial++ {
		s.tb.Sync()
		var evicted bool
		if s.strat.Amplify {
			evicted = s.reloadRounds(refs, walk, victim)
		} else {
			s.touchRef(victim)
			// The fine-timer spy times every load; only the victim's
			// reading decides, but the walk's readings draw jitter too.
			s.timeWalk(refs, walk, len(walk))
			lat := s.touchRef(victim)
			evicted = lat > (s.hitLat+s.missLat)/2
		}
		if evicted {
			pos++
		} else {
			// A miss can be spurious (noise); a hit cannot be — the
			// victim demonstrably survived the walk.
			return false
		}
		if pos == 2 {
			return true
		}
	}
	return pos >= 2
}

// reloadRounds is one amplified conflict-test trial: K rounds of
// untimed-walk + timed victim reload. The decision compares the summed
// reload readings against K midpoints; the calibrated midpoint already
// carries the jitter's mean (both levels are observed medians), so the
// comparison is centered and the residual is the sqrt(K)-averaged noise.
func (s *Spy) reloadRounds(refs []cache.LineRef, walk []int32, victim *cache.LineRef) bool {
	k := s.AmplificationFactor()
	s.loadRaw(victim)
	var obs uint64
	for r := 0; r < k; r++ {
		s.loadWalk(refs, walk)
		obs += s.touchRef(victim)
	}
	return obs > uint64(k)*(s.hitLat+s.missLat)/2
}

// median returns the rounded median of the samples (not modifying them).
func median(xs []uint64) uint64 {
	sorted := append([]uint64(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2] + 1) / 2
}

// spreadOf returns max-min of the samples — the observed jitter range.
func spreadOf(xs []uint64) uint64 {
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return hi - lo
}
