package experiments

import (
	"os"
	"testing"
)

// TestRegistryMergesBothSpecies: the unified registry covers exactly the
// union of All() and Sweeps(), with unique IDs and the right kind.
func TestRegistryMergesBothSpecies(t *testing.T) {
	reg := Registry()
	if want := len(All()) + len(Sweeps()); len(reg) != want {
		t.Fatalf("registry has %d entries, want %d", len(reg), want)
	}
	seen := map[string]bool{}
	for _, e := range reg {
		if seen[e.ID] {
			t.Errorf("duplicate registry ID %q", e.ID)
		}
		seen[e.ID] = true
		switch e.Kind {
		case KindExperiment:
			if e.Experiment.ID != e.ID || e.Experiment.Run == nil {
				t.Errorf("%s: experiment entry not populated", e.ID)
			}
			if e.Grid != nil {
				t.Errorf("%s: experiment entry carries a grid", e.ID)
			}
			if !e.Experiment.Phased() {
				t.Errorf("%s: experiment has no Prepare/Measure pair", e.ID)
			}
		case KindSweep:
			if e.Sweep.ID != e.ID || len(e.Grid) == 0 {
				t.Errorf("%s: sweep entry not populated", e.ID)
			}
			if !e.Sweep.Phased() {
				t.Errorf("%s: sweep has no Prepare/Measure pair", e.ID)
			}
		default:
			t.Errorf("%s: unknown kind %q", e.ID, e.Kind)
		}
	}
	for _, e := range All() {
		if !seen[e.ID] {
			t.Errorf("experiment %s missing from registry", e.ID)
		}
	}
	for _, s := range Sweeps() {
		if !seen[s.ID] {
			t.Errorf("sweep %s missing from registry", s.ID)
		}
	}
}

// TestRegistryGoldenPathsExist: every experiment entry points at its
// committed golden file (the test runs from internal/experiments, so the
// repo-relative path is checked against the repo root).
func TestRegistryGoldenPathsExist(t *testing.T) {
	for _, e := range Registry() {
		switch e.Kind {
		case KindExperiment:
			if e.Golden == "" {
				t.Errorf("%s: experiment entry has no golden path", e.ID)
				continue
			}
			if _, err := os.Stat("../../" + e.Golden); err != nil {
				t.Errorf("%s: golden %s not found: %v", e.ID, e.Golden, err)
			}
		case KindSweep:
			if e.Golden != "" {
				t.Errorf("%s: sweep entry claims a golden file", e.ID)
			}
		}
	}
}

// TestLookupFindsBothKinds: Lookup resolves experiments and sweeps by ID
// through one call — what -resume and the CLI use.
func TestLookupFindsBothKinds(t *testing.T) {
	if e, ok := Lookup("fig10"); !ok || e.Kind != KindExperiment || e.Experiment.ID != "fig10" {
		t.Errorf("Lookup(fig10) = %+v, %v; want the fig10 experiment", e, ok)
	}
	if e, ok := Lookup("sens_covert_timer"); !ok || e.Kind != KindSweep || len(e.Grid) == 0 {
		t.Errorf("Lookup(sens_covert_timer) = %+v, %v; want a sweep with a grid", e, ok)
	}
	if _, ok := Lookup("no_such_id"); ok {
		t.Error("Lookup(no_such_id) succeeded")
	}
}
