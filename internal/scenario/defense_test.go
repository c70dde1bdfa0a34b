package scenario

import (
	"strings"
	"testing"

	"repro/internal/defense"
)

// TestDefenseInOptions: a spec's defense must reshape the built machine
// options, survive Offline() normalization (a platform defense cannot be
// prepared around), and override the environment knobs in OnlineEnv.
func TestDefenseInOptions(t *testing.T) {
	s := Baseline(false).WithDefense(defense.AdaptivePartitioning{})
	if s.Options(1).Cache.Partition == nil {
		t.Error("partition defense missing from built options")
	}
	if s.Offline().Options(1).Cache.Partition == nil {
		t.Error("Offline() dropped the defense")
	}

	tc := Baseline(false).WithDefense(defense.TimerCoarsening{Jitter: 64})
	if got := tc.Options(1).TimerNoise; got != 64 {
		t.Errorf("timer defense: built TimerNoise = %d, want 64", got)
	}
	// The online environment must carry the defense's override too — a
	// sweep cell's reference timer value must not silently undo it.
	if _, timer := tc.Offline().OnlineEnv(); timer != 64 {
		t.Errorf("OnlineEnv timer = %d under timer defense, want 64", timer)
	}
	if noise, timer := Baseline(false).OnlineEnv(); noise != 20_000 || timer != 4 {
		t.Errorf("undefended OnlineEnv = (%v, %v), want baseline (20000, 4)", noise, timer)
	}
}

// TestGridRestrict: a restriction picks exactly the requested labeled
// values, preserving their full-grid coordinates (cell keys and seeds
// must match the unrestricted sweep's cells), and rejects everything
// that could silently change a sweep's meaning: unknown labels, numeric
// axes, absent axes, duplicates.
func TestGridRestrict(t *testing.T) {
	g := Grid{
		DefenseAxis(),
		{Name: AxisNoiseRate, Values: []float64{100, 200}},
	}
	full := g.Cells()

	names := defense.Names()
	pick := []string{names[2], names[0]} // order is the caller's, not the registry's
	r, err := g.Restrict(AxisDefense, pick)
	if err != nil {
		t.Fatal(err)
	}
	cells := r.Cells()
	if len(cells) != 4 {
		t.Fatalf("restricted grid has %d cells, want 4", len(cells))
	}
	// Every restricted cell must appear verbatim (same key, hence same
	// derived seeds) in the full grid.
	fullKeys := map[string]bool{}
	for _, c := range full {
		fullKeys[c.Key()] = true
	}
	for _, c := range cells {
		if !fullKeys[c.Key()] {
			t.Errorf("restricted cell %q not a cell of the full grid", c.Key())
		}
	}
	if l, _ := cells[0].Label(AxisDefense); l != pick[0] {
		t.Errorf("restriction order not honored: first cell defense %q, want %q", l, pick[0])
	}

	if _, err := g.Restrict(AxisDefense, []string{"no-such-defense"}); err == nil {
		t.Error("unknown label accepted")
	}
	if _, err := g.Restrict(AxisNoiseRate, []string{"100"}); err == nil {
		t.Error("numeric axis restriction accepted")
	}
	if _, err := g.Restrict("absent", []string{"x"}); err == nil {
		t.Error("absent axis accepted")
	}
	if _, err := g.Restrict(AxisDefense, []string{names[0], names[0]}); err == nil {
		t.Error("duplicate labels accepted")
	}
	if same, err := g.Restrict(AxisDefense, nil); err != nil || len(same.Cells()) != len(full) {
		t.Error("empty restriction must be the identity")
	}
}

// TestDefenseAxis: the categorical axis must carry registry indices with
// name labels, render labeled cell keys, and map back onto Spec.Defense
// through WithCell.
func TestDefenseAxis(t *testing.T) {
	ax := DefenseAxis()
	if len(ax.Values) != len(defense.All()) || len(ax.Labels) != len(ax.Values) {
		t.Fatalf("full defense axis malformed: %+v", ax)
	}
	g := Grid{ax}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	cells := g.Cells()
	for i, c := range cells {
		want := AxisDefense + "=" + defense.All()[i].Name()
		if c.Key() != want {
			t.Errorf("cell %d key %q, want %q", i, c.Key(), want)
		}
		s := Baseline(false).WithCell(c)
		if s.Defense == nil || s.Defense.Name() != defense.All()[i].Name() {
			t.Errorf("cell %d: WithCell installed %v", i, s.Defense)
		}
		if lbl, ok := c.Label(AxisDefense); !ok || lbl != defense.All()[i].Name() {
			t.Errorf("cell %d: Label = %q, %v", i, lbl, ok)
		}
	}

	sub := DefenseAxis("adaptive-partition", "none")
	if len(sub.Values) != 2 || sub.Labels[0] != "adaptive-partition" || sub.Labels[1] != "none" {
		t.Errorf("subset axis malformed: %+v", sub)
	}

	defer func() {
		if recover() == nil {
			t.Error("unknown defense name must panic")
		}
	}()
	DefenseAxis("not-a-defense")
}

// TestLabeledGridValidation: labels must be all-or-nothing per axis.
func TestLabeledGridValidation(t *testing.T) {
	g := Grid{{Name: "x", Values: []float64{1, 2}, Labels: []string{"one"}}}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "labels") {
		t.Errorf("mismatched label count must fail validation, got %v", err)
	}
}

// TestMixedLabeledNumericGrid: a labeled axis crossed with a numeric one
// renders hybrid keys deterministically.
func TestMixedLabeledNumericGrid(t *testing.T) {
	g := Grid{
		DefenseAxis("none", "adaptive-partition"),
		{Name: AxisNoiseRate, Values: []float64{1000}},
	}
	cells := g.Cells()
	want := []string{
		"defense=none,noise_rate=1000",
		"defense=adaptive-partition,noise_rate=1000",
	}
	for i, c := range cells {
		if c.Key() != want[i] {
			t.Errorf("cell %d key %q, want %q", i, c.Key(), want[i])
		}
	}
	if _, ok := cells[0].Label(AxisNoiseRate); ok {
		t.Error("numeric axis must not report a label")
	}
}
