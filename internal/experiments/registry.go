package experiments

import (
	"path/filepath"

	"repro/internal/scenario"
)

// EntryKind distinguishes the two runnable registry species.
type EntryKind string

const (
	// KindExperiment is a fixed-configuration experiment (a figure or
	// table of the paper).
	KindExperiment EntryKind = "experiment"
	// KindSweep is a parameter-grid sensitivity study.
	KindSweep EntryKind = "sweep"
)

// Entry is one runnable item of the unified registry: either an
// experiment or a sweep, described uniformly so tooling (CLI listing,
// checkpoint resume lookup, a future experiment service) can reason about
// the whole catalog through one surface instead of stitching All() and
// Sweeps() together.
type Entry struct {
	// ID is the item's unique identifier across both species.
	ID string
	// Short is the one-line human description.
	Short string
	// Kind says which of Experiment/Sweep is populated.
	Kind EntryKind
	// Grid is the sweep's parameter grid; nil for experiments.
	Grid scenario.Grid
	// Golden is the repo-relative path of the item's pinned demo-scale
	// report, empty when the item has none (sweeps are pinned by
	// acceptance checks, not goldens).
	Golden string
	// Experiment is the runnable experiment when Kind == KindExperiment.
	Experiment Experiment
	// Sweep is the runnable sweep when Kind == KindSweep.
	Sweep Sweep
}

// Registry returns every runnable item — experiments in paper order, then
// sweeps in registry order — as unified entries.
func Registry() []Entry {
	exps := All()
	sweeps := Sweeps()
	out := make([]Entry, 0, len(exps)+len(sweeps))
	for _, e := range exps {
		out = append(out, Entry{
			ID:         e.ID,
			Short:      e.Short,
			Kind:       KindExperiment,
			Golden:     filepath.Join("internal", "experiments", "testdata", e.ID+".golden.json"),
			Experiment: e,
		})
	}
	for _, s := range sweeps {
		out = append(out, Entry{
			ID:    s.ID,
			Short: s.Short,
			Kind:  KindSweep,
			Grid:  s.Grid,
			Sweep: s,
		})
	}
	return out
}

// Lookup returns the registry entry with the given id, of either kind.
func Lookup(id string) (Entry, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Entry{}, false
}
