package probe

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/scenario"
	"repro/internal/testbed"
)

// The spy's load helpers are the attack-side hot path: every prime, walk,
// and timed reload of every monitor goes through them. These benchmarks
// pin the per-access cost with the testbed's cache and clock cached in
// the Spy (no accessor round-trip per load) and the conflict test built
// on top of it.

func benchSpy(b *testing.B) *Spy {
	b.Helper()
	tb, err := testbed.New(testbed.DefaultOptions(3))
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSpy(tb, 8)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkSpyTouch(b *testing.B) {
	s := benchSpy(b)
	base := s.PageBase(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Touch(base + uint64(i%64)*64)
	}
}

// BenchmarkSpyEvicts runs the conflict test over a fixed candidate set —
// the operation eviction-set construction repeats thousands of times per
// offline phase.
func BenchmarkSpyEvicts(b *testing.B) {
	s := benchSpy(b)
	victim := s.PageBase(0)
	set := make([]uint64, 16)
	for i := range set {
		set[i] = s.PageBase(i%s.Pages()) + uint64(i)*64
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Evicts(set, victim)
	}
}

// BenchmarkSpyMonitorProbeSingle is the online phase's probe: one synced
// PRIME+PROBE walk of one monitored set, cycling through every set of a
// built demo rig. Steady state allocates nothing.
func BenchmarkSpyMonitorProbeSingle(b *testing.B) {
	opts := scenario.Baseline(false).Options(1)
	tb, err := testbed.New(opts)
	if err != nil {
		b.Fatal(err)
	}
	spy, err := NewSpy(tb, opts.Cache.AlignedSetCount()*opts.Cache.Ways*3)
	if err != nil {
		b.Fatal(err)
	}
	groups, err := spy.BuildAlignedEvictionSets(opts.Cache.Ways)
	if err != nil {
		b.Fatal(err)
	}
	m := NewMonitor(spy, groups)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ProbeSingle(i % len(groups))
	}
}

// BenchmarkEvictionSetConstruction is one whole offline build on a small
// machine: testbed, spy mapping and calibration, and the conflict-testing
// construction of every aligned eviction set.
func BenchmarkEvictionSetConstruction(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opts := testbed.DefaultOptions(int64(i))
		opts.Cache = cache.ScaledConfig(2, 1024, 4)
		opts.NoiseRate = 0
		tb, err := testbed.New(opts)
		if err != nil {
			b.Fatal(err)
		}
		spy, err := NewSpy(tb, 32*4*4)
		if err != nil {
			b.Fatal(err)
		}
		groups, err := spy.BuildAlignedEvictionSets(4)
		if err != nil {
			b.Fatal(err)
		}
		if len(groups) == 0 {
			b.Fatal("no groups")
		}
	}
}
