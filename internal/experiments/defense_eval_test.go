package experiments

import (
	"sync"
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
	price := func(seed int64) nginxPerf {
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

// TestCandidatePerfConcurrentMatchesSerial: workers pricing a few
// machines at once, each key reached by several of them, get exactly the
// results one caller gets pricing them in turn. Run under -race it also
// checks the per-key entries are filled and read without a data race.
func TestCandidatePerfConcurrentMatchesSerial(t *testing.T) {
	cfg := perfsim.DefaultNginxConfig()
	cfg.Requests = 64
	cfg.TargetRate = 140_000
	seeds := []int64{11, 12, 13, 14}
	reset := func() {
		candidatePerfMu.Lock()
		clear(candidatePerfCache)
		candidatePerfMu.Unlock()
	}
	reset()
	serial := make([]nginxPerf, len(seeds))
	for i, seed := range seeds {
		p, err := candidatePerf(perfsim.Effects{}, seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = p
	}
	reset()
	const workers = 8
	got := make([][]nginxPerf, workers)
	errs := make(chan error, workers*len(seeds))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]nginxPerf, len(seeds))
			for j := range seeds {
				i := (w + j) % len(seeds) // every worker starts on a different key
				p, err := candidatePerf(perfsim.Effects{}, seeds[i], cfg)
				if err != nil {
					errs <- err
					return
				}
				got[w][i] = p
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for w := range got {
		for i := range seeds {
			if got[w][i] != serial[i] {
				t.Errorf("worker %d, seed %d: %+v, serial %+v", w, seeds[i], got[w][i], serial[i])
			}
		}
	}
}
