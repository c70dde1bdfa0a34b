package experiments_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/runner"
)

// -update regenerates the golden files:
//
//	go test ./internal/experiments -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden report files under testdata/")

// TestGoldenReports pins the demo-scale, seed-0, single-trial JSON report
// bytes of every registry experiment. Any behavioural drift in an
// experiment, the testbed, the simulation substrate, or the report
// encoding shows up as a byte diff against testdata/<id>.golden.json —
// the regression net under this repo's refactors. Per-trial seeds depend
// only on (root seed, experiment id, trial index), so each pinned
// single-experiment document is byte-identical to the corresponding
// entry of a combined run.
func TestGoldenReports(t *testing.T) {
	all := experiments.All()
	rep, err := runner.New(runner.Config{}).Run(all, runner.Job{
		Scale:  experiments.Demo,
		Seed:   0,
		Trials: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if failed := rep.Failed(); failed > 0 {
		t.Fatalf("%d experiment(s) failed; fix them before pinning goldens", failed)
	}
	for i, e := range all {
		single := &runner.Report{
			Schema:      rep.Schema,
			Scale:       rep.Scale,
			Seed:        rep.Seed,
			Trials:      rep.Trials,
			Experiments: rep.Experiments[i : i+1],
		}
		var buf bytes.Buffer
		if err := single.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, e.ID, buf.Bytes())
	}
	if *update {
		t.Log("golden files rewritten")
	}
}

// TestGoldenSweepReports pins the demo-scale, seed-0, single-trial JSON
// report bytes of every registry sweep, as TestGoldenReports does for the
// experiments: testdata/<id>.golden.json (sweep IDs never collide with
// experiment IDs).
func TestGoldenSweepReports(t *testing.T) {
	for _, sw := range experiments.Sweeps() {
		rep, err := runner.New(runner.Config{}).RunSweep(sw, runner.Job{
			Scale:  experiments.Demo,
			Seed:   0,
			Trials: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if failed := rep.Failed(); failed > 0 {
			t.Fatalf("%s: %d cell(s) failed; fix them before pinning goldens", sw.ID, failed)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, sw.ID, buf.Bytes())
	}
}

// checkGolden compares got with testdata/<id>.golden.json, or rewrites the
// file under -update.
func checkGolden(t *testing.T, id string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", id+".golden.json")
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
		t.Fatalf("%s: %v (run `go test ./internal/experiments -run TestGolden -update`)", id, err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("%s: report bytes drifted from %s\n%s", id, path, diffHint(want, got))
	}
}

// TestGoldenFilesCoverRegistry fails when an experiment or sweep is added
// without pinning (or removed without unpinning) its golden file.
func TestGoldenFilesCoverRegistry(t *testing.T) {
	if *update {
		t.Skip("regenerating")
	}
	want := map[string]bool{}
	for _, e := range experiments.All() {
		want[e.ID+".golden.json"] = true
	}
	for _, s := range experiments.Sweeps() {
		want[s.ID+".golden.json"] = true
	}
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if filepath.Ext(ent.Name()) != ".json" {
			continue
		}
		if !want[ent.Name()] {
			t.Errorf("stale golden file %s (no such experiment or sweep)", ent.Name())
		}
		delete(want, ent.Name())
	}
	for missing := range want {
		t.Errorf("missing golden file %s", missing)
	}
}

// diffHint locates the first byte divergence to keep failure output
// readable — full documents run to hundreds of lines.
func diffHint(want, got []byte) string {
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			lo := i - 80
			if lo < 0 {
				lo = 0
			}
			hiW, hiG := i+80, i+80
			if hiW > len(want) {
				hiW = len(want)
			}
			if hiG > len(got) {
				hiG = len(got)
			}
			return fmt.Sprintf("first diff at byte %d:\n golden: ...%s...\n got:    ...%s...",
				i, want[lo:hiW], got[lo:hiG])
		}
	}
	return fmt.Sprintf("lengths differ: golden %d bytes, got %d bytes", len(want), len(got))
}
