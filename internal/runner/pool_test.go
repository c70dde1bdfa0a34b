package runner

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
)

// concurrencyProbe builds an experiment whose trials record the peak
// number of simultaneously running trials across every job sharing the
// counters.
func concurrencyProbe(id string, cur, peak *atomic.Int64) experiments.Experiment {
	return online(id, id, func(_ experiments.Scale, seed int64) (experiments.Result, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
		res := experiments.Result{ID: id, Title: id, Header: []string{"k"}, Rows: [][]string{{"v"}}}
		res.AddMetric("m", "", float64(seed%101))
		return res, nil
	})
}

// TestPoolBoundsConcurrentJobs: two wide jobs sharing a width-1 pool
// never execute two trials at once, and the shared pool does not change
// report bytes relative to an unshared run.
func TestPoolBoundsConcurrentJobs(t *testing.T) {
	var cur, peak atomic.Int64
	mkExps := func() []experiments.Experiment {
		return []experiments.Experiment{
			concurrencyProbe("pool_a", &cur, &peak),
			concurrencyProbe("pool_b", &cur, &peak),
		}
	}
	job := Job{Scale: experiments.Demo, Seed: 5, Trials: 4}

	solo, err := New(Config{Parallel: 4}).Run(mkExps(), job)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := solo.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}

	cur.Store(0)
	peak.Store(0)
	pool := NewPool(1)
	reports := make([]*Report, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := New(Config{Parallel: 4, Pool: pool}).Run(mkExps(), job)
			if err != nil {
				t.Error(err)
				return
			}
			reports[i] = rep
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > 1 {
		t.Errorf("width-1 pool admitted %d concurrent trials", got)
	}
	for i, rep := range reports {
		if rep == nil {
			continue
		}
		var got bytes.Buffer
		if err := rep.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("job %d under shared pool produced different bytes", i)
		}
	}
}

// TestSharedStoreConfig: a caller-owned store is handed through as-is,
// and the misuse cases fail loudly.
func TestSharedStoreConfig(t *testing.T) {
	shared := experiments.NewArtifactStore()
	got, err := Config{Warm: true, Store: shared}.newStore()
	if err != nil || got != shared {
		t.Fatalf("shared store not passed through: %v, %v", got, err)
	}
	if _, err := (Config{Store: shared}).newStore(); err == nil {
		t.Error("shared store without warm mode accepted")
	}
	if _, err := (Config{Warm: true, Store: shared, ArtifactDir: t.TempDir()}).newStore(); err == nil {
		t.Error("shared store plus artifact dir accepted")
	}
	if err := (Config{Warm: true, ArtifactMaxBytes: 1}).validate(); err == nil {
		t.Error("artifact size cap without artifact dir accepted")
	}
}
