package experiments

import (
	"testing"

	"repro/internal/perfsim"
)

// TestCandidatePerfMemoIsBounded: the process-wide perf memo takes one
// entry per job seed, so it must stay at or below its cap however many
// seeds are priced, and an entry priced again after being dropped must
// equal its first value.
func TestCandidatePerfMemoIsBounded(t *testing.T) {
	cfg := perfsim.DefaultNginxConfig()
	cfg.Requests = 4
	cfg.TargetRate = 140_000
	price := func(seed int64) matrixPerf {
		t.Helper()
		p, err := candidatePerf(perfsim.Effects{}, seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	first := price(-1)
	for seed := int64(0); seed < candidatePerfCap+8; seed++ {
		price(seed)
		candidatePerfMu.Lock()
		n := len(candidatePerfCache)
		candidatePerfMu.Unlock()
		if n > candidatePerfCap {
			t.Fatalf("after seed %d the memo holds %d entries, cap %d", seed, n, candidatePerfCap)
		}
	}
	if again := price(-1); again != first {
		t.Errorf("re-priced entry %+v differs from its first value %+v", again, first)
	}
}
