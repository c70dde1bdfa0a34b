package probe

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/scenario"
	"repro/internal/testbed"
)

// TestSimulatedWorkPinned pins the simulated work of the demo offline
// build (the rig every demo experiment and search candidate prepares) and
// of 1,000 monitor passes over the sets it finds: the cache's counters and
// the simulated clock. These are deterministic, so they gate host-side
// speedups of the spy's loads exactly where wall time cannot: a change
// that makes the spy cheaper to simulate must not change what it
// simulates.
func TestSimulatedWorkPinned(t *testing.T) {
	opts := scenario.Baseline(false).Options(1)
	tb, err := testbed.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	spy, err := NewSpy(tb, opts.Cache.AlignedSetCount()*opts.Cache.Ways*3)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := spy.BuildAlignedEvictionSets(opts.Cache.Ways)
	if err != nil {
		t.Fatal(err)
	}
	checkWork(t, "offline build", tb, cache.Stats{
		CPUAccesses: 1_829_809, CPUHits: 1_080_163, CPUMisses: 749_646, MemReads: 749_646,
	}, 200_208_320)

	m := NewMonitor(spy, groups)
	for i := 0; i < 1000; i++ {
		m.ProbeOnce()
	}
	checkWork(t, "1000 probe passes", tb, cache.Stats{
		CPUAccesses: 2_343_990, CPUHits: 1_594_139, CPUMisses: 749_851, MemReads: 749_851,
	}, 222_837_952)
}

func checkWork(t *testing.T, what string, tb *testbed.Testbed, want cache.Stats, wantNow uint64) {
	t.Helper()
	if got := tb.Cache().Stats(); got != want {
		t.Errorf("%s: cache stats\n got %#v\nwant %#v", what, got, want)
	}
	if got := tb.Clock().Now(); got != wantNow {
		t.Errorf("%s: clock %d, want %d", what, got, wantNow)
	}
}
