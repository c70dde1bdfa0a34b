package probe

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/testbed"
)

// coarseOptions returns a quiet machine with the demo cache geometry
// (8 ways — the shape the monitor margin math is sized for) and the given
// timer jitter.
func coarseOptions(seed int64, timerNoise uint64) testbed.Options {
	opts := testbed.DefaultOptions(seed)
	opts.Cache = cache.ScaledConfig(2, 256, 8)
	opts.NoiseRate = 0
	opts.TimerNoise = timerNoise
	opts.MemBytes = 1 << 28
	return opts
}

// timerNoiseLevels is the property-test axis: every jitter magnitude from
// a perfect timer through far past the paper's timer-coarsening defense.
var timerNoiseLevels = []uint64{0, 4, 8, 16, 32, 64, 128, 256}

// TestCalibrationNeverSilentlyBlind is the PR's property test: for every
// timer-noise level and both strategies, calibration either yields a
// separating threshold — an idle probe reads inactive and a post-eviction
// probe reads active — or the monitor explicitly reports that it cannot
// separate (CalibrationOK false). What must never happen is the old
// failure mode: a monitor that claims health while idle jitter crosses
// its thresholds.
func TestCalibrationNeverSilentlyBlind(t *testing.T) {
	for _, strat := range []struct {
		name string
		s    Strategy
	}{
		{"fine-timer", DefaultStrategy()},
		{"amplified", AmplifiedStrategy()},
	} {
		for _, n := range timerNoiseLevels {
			n := n
			strat := strat
			t.Run(strat.name+"/noise="+itoa(n), func(t *testing.T) {
				t.Parallel()
				tb, err := testbed.New(coarseOptions(int64(31+n), n))
				if err != nil {
					t.Fatal(err)
				}
				ccfg := tb.Cache().Config()
				spy, err := NewSpyStrategy(tb, ccfg.AlignedSetCount()*ccfg.Ways*3, strat.s)
				if err != nil {
					t.Fatal(err)
				}
				groups, err := spy.BuildAlignedEvictionSets(ccfg.Ways)
				if err != nil {
					if spy.Calibrated() && strat.name == "amplified" {
						t.Fatalf("amplified offline phase collapsed at noise %d: %v", n, err)
					}
					t.Skipf("offline phase collapsed (reported): %v", err)
				}
				m := NewMonitor(spy, groups[:1])
				if !m.CalibrationOK() {
					// Explicitly degenerate: the property is satisfied by
					// the report itself. The amplified attacker must stay
					// healthy across the whole axis, though — that is the
					// resilience this PR adds.
					if strat.name == "amplified" {
						t.Fatalf("amplified monitor reports degenerate at noise %d", n)
					}
					return
				}
				// Healthy claim: verify it. Idle probes must be quiet...
				m.ProbeOnce() // re-prime after construction
				for pass := 0; pass < 8; pass++ {
					s := m.ProbeOnce()
					if s.Active[0] {
						t.Fatalf("monitor claims CalibrationOK but idle probe read active (pass %d, noise %d)", pass, n)
					}
					tb.Idle(2_000)
				}
				// ...and an eviction of one monitored line must be seen.
				victim := groups[0].Lines[0]
				set := tb.Cache().Config().GlobalSet(victim)
				for trial := 0; trial < 3; trial++ {
					evictLine(tb, ccfg, set)
					s := m.ProbeOnce()
					if !s.Active[0] {
						t.Fatalf("monitor claims CalibrationOK but missed an eviction (noise %d)", n)
					}
				}
			})
		}
	}
}

// evictLine displaces one spy line from the global set by touching
// conflicting addresses (simulator-side convenience standing in for a
// DMA write; the monitor under test cannot tell the difference).
func evictLine(tb *testbed.Testbed, ccfg cache.Config, set int) {
	for _, a := range cache.AddrsInGlobalSet(ccfg, set, 1, 1<<27>>6) {
		tb.Cache().Read(a)
	}
}

// TestAmplifiedCalibrationEstimates pins the quality signals the
// amplified calibration exposes: a separating edge near the true 160-cycle
// hit/miss difference, a noise-spread estimate tracking the configured
// jitter range, and an amplification factor that grows with the noise.
func TestAmplifiedCalibrationEstimates(t *testing.T) {
	var prevFactor int
	for _, n := range []uint64{0, 64, 256} {
		tb, err := testbed.New(coarseOptions(7, n))
		if err != nil {
			t.Fatal(err)
		}
		spy, err := NewSpyStrategy(tb, 64, AmplifiedStrategy())
		if err != nil {
			t.Fatal(err)
		}
		if !spy.Calibrated() {
			t.Fatalf("noise %d: calibration degenerate", n)
		}
		edge := spy.MissLatency() - spy.HitLatency()
		if edge < 100 || edge > 220 {
			t.Errorf("noise %d: edge estimate %d far from true 160", n, edge)
		}
		if n == 0 && spy.NoiseSpread() != 0 {
			t.Errorf("perfect timer: spread %d != 0", spy.NoiseSpread())
		}
		if n > 0 {
			if sp := spy.NoiseSpread(); sp < n || sp > 2*n+16 {
				t.Errorf("noise %d: spread estimate %d outside [N, 2N]", n, sp)
			}
		}
		if spy.AmplificationFactor() < prevFactor {
			t.Errorf("noise %d: amplification factor %d fell below %d", n, spy.AmplificationFactor(), prevFactor)
		}
		prevFactor = spy.AmplificationFactor()
	}
	if prevFactor < 2 {
		t.Errorf("factor at noise 256 is %d; amplification never engaged", prevFactor)
	}
}

// TestAmplifiedEvictionSetsUnderCoarseTimer asserts the tentpole's offline
// half: eviction-set construction — conflict testing throughout — still
// recovers every page-aligned group when the attacker's own preparation
// runs under the paper's timer-coarsening defense magnitude.
func TestAmplifiedEvictionSetsUnderCoarseTimer(t *testing.T) {
	tb, err := testbed.New(coarseOptions(11, 64))
	if err != nil {
		t.Fatal(err)
	}
	ccfg := tb.Cache().Config()
	spy, err := NewSpyStrategy(tb, ccfg.AlignedSetCount()*ccfg.Ways*3, AmplifiedStrategy())
	if err != nil {
		t.Fatal(err)
	}
	groups, err := spy.BuildAlignedEvictionSets(ccfg.Ways)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != ccfg.AlignedSetCount() {
		t.Fatalf("recovered %d groups want %d", len(groups), ccfg.AlignedSetCount())
	}
	for _, g := range groups {
		gs := ccfg.GlobalSet(g.Lines[0])
		for _, a := range g.Lines {
			if ccfg.GlobalSet(a) != gs {
				t.Fatalf("group %d lines not co-mapped under coarse timer", g.ID)
			}
		}
	}
}

// TestRestoreSpyRoundTripsStrategy asserts warm-start rebinding preserves
// the full calibration state, including the new quality signals.
func TestRestoreSpyRoundTripsStrategy(t *testing.T) {
	tb, err := testbed.New(coarseOptions(13, 64))
	if err != nil {
		t.Fatal(err)
	}
	spy, err := NewSpyStrategy(tb, 64, AmplifiedStrategy())
	if err != nil {
		t.Fatal(err)
	}
	st := spy.State()
	re := &Spy{}
	re.Rebind(tb, st)
	if re.HitLatency() != spy.HitLatency() || re.MissLatency() != spy.MissLatency() ||
		re.Calibrated() != spy.Calibrated() || re.NoiseSpread() != spy.NoiseSpread() ||
		re.AmplificationFactor() != spy.AmplificationFactor() ||
		re.Strategy() != spy.Strategy() {
		t.Fatalf("restored spy state differs: %+v vs %+v", re.State(), st)
	}
}

// itoa avoids strconv in a hot test-name path.
func itoa(n uint64) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestStrategyFingerprint pins the strategy half of the artifact key:
// the fine-timer attacker adds nothing, the amplified one its constants.
func TestStrategyFingerprint(t *testing.T) {
	if got := DefaultStrategy().Fingerprint(); got != "" {
		t.Errorf("default strategy fingerprint %q, want empty", got)
	}
	if got, want := AmplifiedStrategy().Fingerprint(), "amplified(cal=64,max=32)"; got != want {
		t.Errorf("amplified strategy fingerprint %q, want %q", got, want)
	}
}
