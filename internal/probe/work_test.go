package probe

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/scenario"
	"repro/internal/testbed"
)

// simulatedWork is what a stretch of spy activity simulated: the cache's
// counters, the clock, and the timer stream's draw count.
type simulatedWork struct {
	stats      cache.Stats
	now, draws uint64
}

// TestSimulatedWorkPinned pins the simulated work of the demo offline
// build (the rig every demo experiment and search candidate prepares) and
// of 1,000 monitor passes over the sets it finds: the cache's counters,
// the simulated clock and the timer's draw count. These are deterministic,
// so they gate host-side speedups of the spy's loads exactly where wall
// time cannot: a change that makes the spy cheaper to simulate must not
// change what it simulates. The rows cover both strategies (a fine-timer
// walk reads the timer per load, an amplified one per walk) and the
// adaptive partition cache, whose accesses read the clock.
func TestSimulatedWorkPinned(t *testing.T) {
	for _, tc := range []struct {
		name          string
		amplified     bool
		partitioned   bool
		build, passes simulatedWork
	}{
		{
			name: "fine-timer",
			build: simulatedWork{cache.Stats{
				CPUAccesses: 1_829_809, CPUHits: 1_080_163, CPUMisses: 749_646, MemReads: 749_646,
			}, 200_208_320, 1_828_600},
			passes: simulatedWork{cache.Stats{
				CPUAccesses: 2_343_990, CPUHits: 1_594_139, CPUMisses: 749_851, MemReads: 749_851,
			}, 222_837_952, 2_342_648},
		},
		{
			name:      "amplified",
			amplified: true,
			build: simulatedWork{cache.Stats{
				CPUAccesses: 1_829_905, CPUHits: 1_080_211, CPUMisses: 749_694, MemReads: 749_694,
			}, 200_220_224, 61_058},
			passes: simulatedWork{cache.Stats{
				CPUAccesses: 2_350_743, CPUHits: 1_600_843, CPUMisses: 749_900, MemReads: 749_900,
			}, 223_142_720, 126_146},
		},
		{
			name:        "partitioned",
			partitioned: true,
			build: simulatedWork{cache.Stats{
				CPUAccesses: 1_709_624, CPUHits: 956_303, CPUMisses: 753_321, MemReads: 753_321,
			}, 195_513_892, 1_708_443},
			passes: simulatedWork{cache.Stats{
				CPUAccesses: 2_224_100, CPUHits: 1_167_969, CPUMisses: 1_056_131, MemReads: 1_056_131,
			}, 266_513_124, 2_222_491},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := scenario.Baseline(false).Options(1)
			if tc.partitioned {
				opts.Cache.Partition = cache.DefaultPartitionConfig()
			}
			strat := DefaultStrategy()
			if tc.amplified {
				strat = AmplifiedStrategy()
			}
			tb, err := testbed.New(opts)
			if err != nil {
				t.Fatal(err)
			}
			spy, err := NewSpyStrategy(tb, opts.Cache.AlignedSetCount()*opts.Cache.Ways*3, strat)
			if err != nil {
				t.Fatal(err)
			}
			groups, err := spy.BuildAlignedEvictionSets(opts.Cache.Ways)
			if err != nil {
				t.Fatal(err)
			}
			checkWork(t, "offline build", tb, tc.build)

			m := NewMonitor(spy, groups)
			for i := 0; i < 1000; i++ {
				m.ProbeOnce()
			}
			checkWork(t, "1000 probe passes", tb, tc.passes)
		})
	}
}

func checkWork(t *testing.T, what string, tb *testbed.Testbed, want simulatedWork) {
	t.Helper()
	got := simulatedWork{tb.Cache().Stats(), tb.Clock().Now(), tb.TimerDraws()}
	if got.stats != want.stats {
		t.Errorf("%s: cache stats\n got %#v\nwant %#v", what, got.stats, want.stats)
	}
	if got.now != want.now {
		t.Errorf("%s: clock %d, want %d", what, got.now, want.now)
	}
	if got.draws != want.draws {
		t.Errorf("%s: timer draws %d, want %d", what, got.draws, want.draws)
	}
}
