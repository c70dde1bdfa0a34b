package netmodel

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestFrameBlocks(t *testing.T) {
	cases := []struct{ size, blocks int }{
		{64, 1}, {65, 2}, {128, 2}, {192, 3}, {256, 4}, {1522, 24},
	}
	for _, c := range cases {
		f := Frame{Size: c.size}
		if got := f.Blocks(); got != c.blocks {
			t.Errorf("Blocks(%d)=%d want %d", c.size, got, c.blocks)
		}
	}
}

func TestFrameValidate(t *testing.T) {
	if (Frame{Size: 64}).Validate() != nil {
		t.Error("64B frame is legal")
	}
	if (Frame{Size: 63}).Validate() == nil {
		t.Error("63B frame is illegal")
	}
	if (Frame{Size: 1523}).Validate() == nil {
		t.Error("1523B frame is illegal")
	}
}

func TestSizeForBlocks(t *testing.T) {
	if SizeForBlocks(1) != 64 {
		t.Error("1 block -> 64B")
	}
	if SizeForBlocks(4) != 256 {
		t.Error("4 blocks -> 256B")
	}
	if SizeForBlocks(100) != MaxFrameSize {
		t.Error("oversize clamps to max frame")
	}
	// Round trip: a frame of SizeForBlocks(n) occupies exactly n blocks.
	for n := 1; n <= 23; n++ {
		f := Frame{Size: SizeForBlocks(n)}
		if f.Blocks() != n {
			t.Errorf("round trip n=%d got %d blocks", n, f.Blocks())
		}
	}
}

func TestWireSerializes(t *testing.T) {
	w := NewWire(GigabitRate)
	f1 := w.Send(1522, 0, false)
	f2 := w.Send(1522, 0, false)
	if f2.Arrival <= f1.Arrival {
		t.Error("second frame must arrive after first")
	}
	if f2.Arrival-f1.Arrival != WireTime(1522, GigabitRate) {
		t.Error("back-to-back frames must be spaced by wire time")
	}
	if f1.Seq != 0 || f2.Seq != 1 {
		t.Error("sequence numbers must increment")
	}
}

func TestConstantSourcePacing(t *testing.T) {
	w := NewWire(GigabitRate)
	src := NewConstantSource(w, 64, 200_000, 0, 10)
	frames := Collect(src, 100)
	if len(frames) != 10 {
		t.Fatalf("got %d frames want 10", len(frames))
	}
	period := sim.CyclesPerSecond(200_000)
	for i := 1; i < len(frames); i++ {
		gap := frames[i].Arrival - frames[i-1].Arrival
		if gap != period {
			t.Errorf("gap %d want %d (wire far below saturation)", gap, period)
		}
	}
}

func TestConstantSourceLineRateBound(t *testing.T) {
	// Requesting far beyond line rate must degrade to wire spacing.
	w := NewWire(GigabitRate)
	src := NewConstantSource(w, 1522, 10_000_000, 0, 5)
	frames := Collect(src, 5)
	wt := WireTime(1522, GigabitRate)
	for i := 1; i < len(frames); i++ {
		if frames[i].Arrival-frames[i-1].Arrival != wt {
			t.Error("saturated wire must space frames by wire time")
		}
	}
}

func TestTraceSourceGaps(t *testing.T) {
	w := NewWire(GigabitRate)
	src := NewTraceSource(w, []int{64, 128, 256}, []uint64{0, 1000, 1000}, 0)
	frames := Collect(src, 10)
	if len(frames) != 3 {
		t.Fatalf("got %d frames", len(frames))
	}
	if frames[1].Arrival <= frames[0].Arrival+1000 {
		t.Error("gap must delay the second frame")
	}
	if !frames[0].Known {
		t.Error("trace frames are Known protocol traffic")
	}
}

func TestReorderingSourceZeroProbIsIdentity(t *testing.T) {
	w := NewWire(GigabitRate)
	base := NewConstantSource(w, 64, 100_000, 0, 20)
	re := NewReorderingSource(base, 0, sim.NewRNG(1))
	frames := Collect(re, 30)
	if len(frames) != 20 {
		t.Fatalf("got %d", len(frames))
	}
	for i, f := range frames {
		if f.Seq != uint64(i) {
			t.Error("p=0 must preserve order")
		}
	}
}

func TestReorderingSourceSwaps(t *testing.T) {
	w := NewWire(GigabitRate)
	sizes := make([]int, 50)
	for i := range sizes {
		sizes[i] = SizeForBlocks(i%4 + 1)
	}
	base := NewTraceSource(w, sizes, nil, 0)
	re := NewReorderingSource(base, 1.0, sim.NewRNG(2))
	frames := Collect(re, 60)
	if len(frames) != 50 {
		t.Fatalf("reordering must not drop frames: %d", len(frames))
	}
	swapped := 0
	for i, f := range frames {
		if f.Size != sizes[i] {
			swapped++
		}
	}
	if swapped == 0 {
		t.Error("p=1 must swap some frame sizes")
	}
}

func TestMixSourceMergesByArrival(t *testing.T) {
	w := NewWire(GigabitRate)
	a := NewConstantSource(w, 64, 50_000, 0, 5)
	b := NewConstantSource(w, 128, 70_000, 1000, 5)
	mix := NewMixSource(a, b)
	frames := Collect(mix, 100)
	if len(frames) != 10 {
		t.Fatalf("got %d frames want 10", len(frames))
	}
	for i := 1; i < len(frames); i++ {
		if frames[i].Arrival < frames[i-1].Arrival {
			t.Fatal("merged stream must be in arrival order")
		}
	}
}

func TestWireTimeMonotonic(t *testing.T) {
	f := func(a, b uint16) bool {
		sa := int(a%1459) + 64
		sb := int(b%1459) + 64
		if sa > sb {
			sa, sb = sb, sa
		}
		return WireTime(sa, GigabitRate) <= WireTime(sb, GigabitRate)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
