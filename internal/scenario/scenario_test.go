package scenario

import "testing"

func TestValidateRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"partial geometry", Spec{CacheSlices: 2}},
		{"negative ring", Spec{RingSize: -1}},
		{"negative noise", Spec{NoiseRate: -1}},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestBaselineOptionsMatchLegacyShapes(t *testing.T) {
	demo := Baseline(false).Options(3)
	if demo.Cache.SizeBytes() != 2<<20 || demo.NIC.RingSize != 64 {
		t.Errorf("demo baseline drifted: %d bytes LLC, ring %d", demo.Cache.SizeBytes(), demo.NIC.RingSize)
	}
	if demo.NoiseRate != 20_000 || demo.TimerNoise != 4 || demo.Seed != 3 {
		t.Errorf("demo baseline environment drifted: %+v", demo)
	}
	paper := Baseline(true).Options(3)
	if paper.Cache.SizeBytes() != 20<<20 || paper.NIC.RingSize != 256 {
		t.Errorf("paper baseline drifted: %d bytes LLC, ring %d", paper.Cache.SizeBytes(), paper.NIC.RingSize)
	}
}

func TestGridCellsRowMajor(t *testing.T) {
	g := Grid{
		{Name: "a", Values: []float64{1, 2}},
		{Name: "b", Values: []float64{10, 20, 30}},
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	cells := g.Cells()
	if len(cells) != g.Size() || g.Size() != 6 {
		t.Fatalf("got %d cells want 6", len(cells))
	}
	wantKeys := []string{
		"a=1,b=10", "a=1,b=20", "a=1,b=30",
		"a=2,b=10", "a=2,b=20", "a=2,b=30",
	}
	for i, c := range cells {
		if c.Key() != wantKeys[i] {
			t.Errorf("cell %d key %q want %q", i, c.Key(), wantKeys[i])
		}
	}
	if v, ok := cells[4].Value("b"); !ok || v != 20 {
		t.Errorf("cell 4 b = %v, %v", v, ok)
	}
	if _, ok := cells[0].Value("c"); ok {
		t.Error("unknown axis must not resolve")
	}
	coords := cells[5].Coords()
	if coords["a"] != 2 || coords["b"] != 30 {
		t.Errorf("coords wrong: %v", coords)
	}
}

func TestGridValidate(t *testing.T) {
	for _, g := range []Grid{
		{},
		{{Name: "", Values: []float64{1}}},
		{{Name: "a", Values: nil}},
		{{Name: "a", Values: []float64{1}}, {Name: "a", Values: []float64{2}}},
	} {
		if err := g.Validate(); err == nil {
			t.Errorf("grid %+v must not validate", g)
		}
	}
}

func TestWithCell(t *testing.T) {
	s := Baseline(false)
	c := NewCell(
		[]string{AxisNoiseRate, AxisTimerNoise, AxisRingSize, "private"},
		[]float64{123456, 77, 32, 9},
	)
	got := s.WithCell(c)
	if got.NoiseRate != 123456 || got.TimerNoise != 77 || got.RingSize != 32 {
		t.Errorf("WithCell did not apply: %+v", got)
	}
	// The receiver must be untouched (value semantics).
	if s.NoiseRate != 20_000 || s.TimerNoise != 4 || s.RingSize != 64 {
		t.Errorf("WithCell mutated the base spec: %+v", s)
	}
}

// TestOfflineSpec: the offline view keeps geometry and resets the
// environment to the reference.
func TestOfflineSpec(t *testing.T) {
	s := Baseline(false)
	s.NoiseRate = 400_000
	s.TimerNoise = 8
	s.RingSize = 32
	off := s.Offline()
	if off.NoiseRate != OfflineNoiseRate || off.TimerNoise != OfflineTimerNoise {
		t.Errorf("offline environment not at reference: %+v", off)
	}
	if off.RingSize != 32 || off.CacheSlices != s.CacheSlices {
		t.Error("offline spec must preserve geometry")
	}
}
