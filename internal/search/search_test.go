package search

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/runner"
)

func reportBytes(t *testing.T, opts Options) []byte {
	t.Helper()
	rep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// -update regenerates the frontier golden:
//
//	go test ./internal/search -run TestSearchGolden -update
var update = flag.Bool("update", false, "rewrite the frontier golden under testdata/")

// TestSearchGolden pins the bytes of a small demo search: every
// candidate's leakage, overhead and per-family metrics, the frontier
// and the hypervolume. It is the search-side twin of the experiments'
// TestGoldenReports, so a refactor of the defense scorer that moves a
// candidate byte fails here, not only in the benchmark digest.
func TestSearchGolden(t *testing.T) {
	got := reportBytes(t, Options{
		Scale:  experiments.Demo,
		Seed:   1,
		Budget: 12,
		Runner: runner.Config{Parallel: 2, Warm: true},
	})
	path := filepath.Join("testdata", "frontier.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("frontier report differs from %s (rerun with -update only for an intended change):\n%s", path, got)
	}
}

// TestSearchDeterministicAcrossParallel: the full frontier report is
// byte-identical whatever the worker-pool width — the seeded-search
// determinism contract the checkpoint journal and CI smoke both lean
// on.
func TestSearchDeterministicAcrossParallel(t *testing.T) {
	base := Options{
		Scale:  experiments.Demo,
		Seed:   1,
		Budget: 10,
	}
	narrow, wide := base, base
	narrow.Runner = runner.Config{Parallel: 1, Warm: true}
	wide.Runner = runner.Config{Parallel: 8, Warm: true}
	a := reportBytes(t, narrow)
	b := reportBytes(t, wide)
	if !bytes.Equal(a, b) {
		t.Fatalf("report bytes differ across -parallel widths:\n--- parallel=1\n%s\n--- parallel=8\n%s", a, b)
	}
	// Cold and pooled-warm runs agree too: pooling is a wall-clock
	// optimization, never a result change.
	cold := base
	cold.Runner = runner.Config{Parallel: 4, NoRigReuse: true}
	if c := reportBytes(t, cold); !bytes.Equal(a, c) {
		t.Fatalf("report bytes differ between warm and cold runs")
	}
}

// TestSearchResume: an interrupted search (trial budget spends out
// mid-grid) resumes from its journal to the exact bytes of an
// uninterrupted run.
func TestSearchResume(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Scale:  experiments.Demo,
		Seed:   1,
		Budget: 8,
		Runner: runner.Config{Parallel: 2, Warm: true},
	}
	want := reportBytes(t, opts)

	interrupted := opts
	interrupted.Runner.CheckpointDir = dir
	interrupted.Runner.TrialBudget = 3
	if _, err := Run(interrupted); err == nil {
		t.Fatal("budgeted run should have stopped with ErrBudget")
	}
	resumed := opts
	resumed.Runner.CheckpointDir = dir
	resumed.Runner.Resume = true
	if got := reportBytes(t, resumed); !bytes.Equal(got, want) {
		t.Fatalf("resumed report differs from uninterrupted run:\n%s\n---\n%s", got, want)
	}
}

// TestSearchAnchors is the acceptance anchor at a small budget: the
// frontier carries an adaptive-partitioning candidate, and that
// candidate ε-dominates bare timer-coarse-64 (whose strongest attacker
// — the amplified coarse-timer attack — still reads the ring, at zero
// server cost but near-total leakage).
func TestSearchAnchors(t *testing.T) {
	rep, err := Run(Options{
		Scale:  experiments.Demo,
		Seed:   1,
		Budget: 8,
		Runner: runner.Config{Parallel: 4, Warm: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != SchemaVersion {
		t.Fatalf("schema %q", rep.Schema)
	}
	var partition *Candidate
	for i, c := range rep.Frontier {
		if c.Params.PartitionWays > 0 {
			partition = &rep.Frontier[i]
			break
		}
	}
	if partition == nil {
		t.Fatalf("no adaptive-partitioning candidate on the frontier: %+v", rep.Frontier)
	}
	var timer64 *Candidate
	for i, c := range rep.Candidates {
		if c.ID == "p0-roff-t64" {
			timer64 = &rep.Candidates[i]
		}
	}
	if timer64 == nil || !timer64.OK {
		t.Fatalf("bare timer-coarse-64 anchor missing or failed: %+v", timer64)
	}
	if timer64.OnFrontier {
		t.Fatal("bare timer-coarse-64 must not be on the frontier")
	}
	p := Point{ID: partition.ID, Leakage: partition.Leakage, Overhead: partition.Overhead}
	q := Point{ID: timer64.ID, Leakage: timer64.Leakage, Overhead: timer64.Overhead}
	if !DominatesEps(p, q, rep.Epsilon) {
		t.Fatalf("partition candidate %+v must ε-dominate bare timer-coarse-64 %+v", p, q)
	}
	if rep.Hypervolume <= 0 {
		t.Fatalf("hypervolume %g", rep.Hypervolume)
	}
}

// TestSearchArtifactResidency is the store's memory gate: a search
// holds each candidate's machines only while the candidate is measured.
// Every candidate prepares at most two rigs (the defended machine and,
// under a coarse timer, the amplified attacker's), and each worker
// measures one candidate at a time, so a budget-16 search on two workers
// never has more than 2 x Parallel entries resident, and none once Run
// returns. Residency is sampled as each outcome arrives.
func TestSearchArtifactResidency(t *testing.T) {
	const parallel = 2
	store := experiments.NewArtifactStore()
	peak := &residencySink{store: store}
	rep, err := Run(Options{
		Scale:  experiments.Demo,
		Seed:   1,
		Budget: 16,
		Runner: runner.Config{Parallel: parallel, Warm: true, Store: store, Sinks: []runner.CellSink{peak}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d candidates, %d builds, peak resident %d over %d samples",
		rep.Evaluated, store.Builds(), peak.max, peak.samples)
	if peak.samples != rep.Evaluated {
		t.Errorf("sampled %d outcomes, want one per candidate (%d)", peak.samples, rep.Evaluated)
	}
	if peak.max > 2*parallel {
		t.Errorf("peak resident artifacts = %d, want <= %d (2 x Parallel)", peak.max, 2*parallel)
	}
	if got := store.Resident(); got != 0 {
		t.Errorf("%d artifacts resident after Run returned, want 0", got)
	}
}

// residencySink records the most store entries resident at any outcome.
type residencySink struct {
	store   *experiments.ArtifactStore
	max     int
	samples int
}

func (s *residencySink) Put(runner.TrialOutcome) error {
	s.samples++
	s.max = max(s.max, s.store.Resident())
	return nil
}

// TestSearchRigPoolCounts pins how a one-worker budget-16 search at seed 1
// recycles rigs and how many offline builds it makes. The pool keys rigs
// by buffer shape, so only the first lease of each shape (and each rig a
// trial leases beyond those already idle) clones a fresh machine. The
// build count pins the artifact key: a key that merged two distinct
// machines would build fewer, one that split a machine would build more.
func TestSearchRigPoolCounts(t *testing.T) {
	store := experiments.NewArtifactStore()
	rep, err := Run(Options{
		Scale:  experiments.Demo,
		Seed:   1,
		Budget: 16,
		Runner: runner.Config{Parallel: 1, Warm: true, Store: store},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Rigs; got.Adopted != 69 || got.Fresh != 12 {
		t.Errorf("rig pool counts %+v, want 69 adopted and 12 fresh", got)
	}
	if got := store.Builds(); got != 27 {
		t.Errorf("offline builds = %d, want 27", got)
	}
}

// TestSearchRigReuseByShape is the deterministic gate on rig reuse: the
// rig pool keys idle machines by buffer shape, so a one-worker budget-48
// search clones a fresh machine only the first few times it meets a
// shape, and never drops an idle rig to the cap. Keyed by the full
// machine configuration instead, the same search cloned 78 machines and
// dropped 46.
func TestSearchRigReuseByShape(t *testing.T) {
	rep, err := Run(Options{
		Scale:  experiments.Demo,
		Seed:   1,
		Budget: 48,
		Runner: runner.Config{Parallel: 1, Warm: true, Store: experiments.NewArtifactStore()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("rig pool counts %+v", rep.Rigs)
	if got := rep.Rigs; got.Fresh > 12 || got.Dropped != 0 {
		t.Errorf("rig pool counts %+v, want at most 12 fresh and none dropped", got)
	}
}
