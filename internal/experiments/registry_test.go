package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRegistryMergesBothSpecies: experiments and sweeps share one ID space
// (the CLI's -list, the service's /v1/registry and the golden files all
// address both by bare ID), and every unit of either kind is populated
// with a Prepare/Measure pair.
func TestRegistryMergesBothSpecies(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Errorf("duplicate registry ID %q", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || !e.Phased() {
			t.Errorf("%s: experiment has no Prepare/Measure pair", e.ID)
		}
	}
	for _, s := range Sweeps() {
		if seen[s.ID] {
			t.Errorf("duplicate registry ID %q", s.ID)
		}
		seen[s.ID] = true
		if len(s.Grid) == 0 {
			t.Errorf("%s: sweep has no grid", s.ID)
		}
		if !s.Phased() {
			t.Errorf("%s: sweep has no Prepare/Measure pair", s.ID)
		}
	}
}

// TestLookupFindsBothKinds: ByID resolves only experiments and SweepByID
// only sweeps — the two lookups the service's Resolve and the CLI use.
func TestLookupFindsBothKinds(t *testing.T) {
	if e, ok := ByID("fig10"); !ok || e.ID != "fig10" {
		t.Errorf("ByID(fig10) = %+v, %v; want the fig10 experiment", e, ok)
	}
	if s, ok := SweepByID("sens_covert_timer"); !ok || s.ID != "sens_covert_timer" || len(s.Grid) == 0 {
		t.Errorf("SweepByID(sens_covert_timer) = %+v, %v; want a sweep with a grid", s, ok)
	}
	if _, ok := ByID("sens_covert_timer"); ok {
		t.Error("ByID found a sweep")
	}
	if _, ok := SweepByID("fig10"); ok {
		t.Error("SweepByID found an experiment")
	}
	if _, ok := ByID("no_such_id"); ok {
		t.Error("ByID(no_such_id) succeeded")
	}
}

// TestRegistryGoldenPathsExist: every registered experiment and sweep has
// its committed demo-scale golden file under testdata, named by bare ID.
func TestRegistryGoldenPathsExist(t *testing.T) {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	for _, s := range Sweeps() {
		ids = append(ids, s.ID)
	}
	for _, id := range ids {
		path := filepath.Join("testdata", id+".golden.json")
		if _, err := os.Stat(path); err != nil {
			t.Errorf("%s: golden %s not found: %v", id, path, err)
		}
	}
}
