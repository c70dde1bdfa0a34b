package sim

import (
	"math/rand"
	"testing"
)

// TestRNGMatchesStdlib is the differential test for sim's copy of the
// stdlib generator and the *RNG fast paths: over 120 seeds (negative,
// zero, and the clamp boundaries of Seed's modulus included), a random mix
// of every draw kind the simulation uses must return exactly what a
// rand.New(rand.NewSource(seed)) returns, draw for draw. Intn covers
// powers of two, odd n, and n > 2³¹ (the Int63n delegation).
func TestRNGMatchesStdlib(t *testing.T) {
	seeds := []int64{0, 1, -1, 1<<31 - 1, 1 << 31, -(1 << 31), 1<<63 - 1, -1 << 63}
	for s := int64(2); len(seeds) < 120; s++ {
		seeds = append(seeds, DeriveSeed(s, "stdlib-diff"))
	}
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		got := NewRNG(seed)
		ops := NewRNG(seed ^ 0x5eed) // the op mix, an independent stream
		for i := 0; i < 600; i++ {
			op := ops.Intn(9)
			var g, w int64
			switch op {
			case 0:
				g, w = got.Int63(), want.Int63()
			case 1:
				g, w = int64(got.Uint64()), int64(want.Uint64())
			case 2:
				n := 1 << ops.Intn(31)
				g, w = int64(got.Intn(n)), int64(want.Intn(n))
			case 3:
				n := 2*ops.Intn(1<<30) + 1
				g, w = int64(got.Intn(n)), int64(want.Intn(n))
			case 4:
				n := 1<<31 + ops.Intn(1<<40)
				g, w = int64(got.Intn(n)), int64(want.Intn(n))
			case 5:
				g, w = int64(got.Float64()*(1<<53)), int64(want.Float64()*(1<<53))
			case 6:
				n := 1 + ops.Intn(40)
				g, w = int64(slicesDiffer(got.Perm(n), want.Perm(n))), 0
			case 7:
				n := 1 + ops.Intn(40)
				a, b := make([]int, n), make([]int, n)
				for k := range a {
					a[k], b[k] = k, k
				}
				got.Shuffle(n, func(i, j int) { a[i], a[j] = a[j], a[i] })
				want.Shuffle(n, func(i, j int) { b[i], b[j] = b[j], b[i] })
				g, w = int64(slicesDiffer(a, b)), 0
			case 8:
				g, w = int64(got.ExpFloat64()*(1<<40)), int64(want.ExpFloat64()*(1<<40))
			}
			if g != w {
				t.Fatalf("seed %d draw %d (op %d): sim %d, math/rand %d", seed, i, op, g, w)
			}
		}
	}
}

// slicesDiffer is 1 when a and b differ, else 0.
func slicesDiffer(a, b []int) int {
	if len(a) != len(b) {
		return 1
	}
	for i := range a {
		if a[i] != b[i] {
			return 1
		}
	}
	return 0
}

// TestRNGMaterializedRestoreMatchesReplay: restoring a captured state by
// copying its generator lands on exactly the stream that replaying its
// (seed, draws) position from the seed reaches, across mixed draw kinds:
// the recorded position is honest bookkeeping of the generator's steps.
func TestRNGMaterializedRestoreMatchesReplay(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		orig := NewRNG(seed)
		ops := NewRNG(-seed)
		for i, n := 0, ops.Intn(3000); i < n; i++ {
			switch ops.Intn(4) {
			case 0:
				orig.Intn(1 + ops.Intn(1000))
			case 1:
				orig.Float64()
			case 2:
				orig.Perm(1 + ops.Intn(8))
			case 3:
				orig.ExpFloat64()
			}
		}
		st := orig.Snapshot()

		copied, replayed := NewRNG(seed+1), NewRNG(st.Seed)
		copied.Restore(&st)
		for i := uint64(0); i < st.Draws; i++ {
			replayed.Uint64()
		}
		if replayed.Snapshot() != st {
			t.Fatalf("seed %d: replaying %d draws did not reach the captured state", seed, st.Draws)
		}
		for i := 0; i < 64; i++ {
			w := orig.Int63()
			if copied.Int63() != w || replayed.Int63() != w {
				t.Fatalf("seed %d: restored streams diverge at draw %d", seed, i)
			}
		}
	}
}

// TestShuffleStepMatchesStdlib: walking positions n−1 down to 1 with
// ShuffleStep reproduces rand.Rand.Shuffle's permutation and consumes
// exactly its draws, for n from 2 to 10⁶. Above 2³¹−2 Shuffle switches to
// Int63n; the first swaps of a 2³¹+3-element shuffle pin that branch and
// the crossing, recorded from the stdlib by aborting it early.
func TestShuffleStepMatchesStdlib(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 7, 8, 13, 64, 100, 255, 1000, 4097, 65537, 262144, 1000000} {
		seed := int64(n)
		want := rand.New(rand.NewSource(seed))
		a := make([]int32, n)
		for i := range a {
			a[i] = int32(i)
		}
		want.Shuffle(n, func(i, j int) { a[i], a[j] = a[j], a[i] })
		got := NewRNG(seed)
		b := make([]int32, n)
		for i := range b {
			b[i] = int32(i)
		}
		for i := n - 1; i > 0; i-- {
			j := got.ShuffleStep(i)
			b[i], b[j] = b[j], b[i]
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("n=%d: position %d holds %d, Shuffle put %d there", n, i, b[i], a[i])
			}
		}
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("n=%d: streams diverge after the shuffle: %d vs %d", n, g, w)
		}
	}

	const n, steps = 1<<31 + 3, 8
	type swap struct{ i, j int }
	var want []swap
	func() {
		defer func() { _ = recover() }()
		rand.New(rand.NewSource(9)).Shuffle(n, func(i, j int) {
			want = append(want, swap{i, j})
			if len(want) == steps {
				panic("enough")
			}
		})
	}()
	got := NewRNG(9)
	for k, w := range want {
		if j := got.ShuffleStep(w.i); j != w.j {
			t.Fatalf("step %d at position %d: ShuffleStep %d, Shuffle %d", k, w.i, j, w.j)
		}
	}
	if len(want) != steps {
		t.Fatalf("recorded %d swaps, want %d", len(want), steps)
	}
}

// TestUniformMatchesIntn pins RNG.DrawSum to Intn: across seeds and
// ranges covering n = 1, powers of two, odd n, a range whose rejection
// loop redraws a quarter of the time (3·2²⁹), the 2³¹−1 edge and the
// n ≥ 2³¹ Int63n delegation, every single draw and every sum of k draws
// (k = 0, 1, a power of two and a count that is not one) must equal what
// Intn gives, and leave the whole RNG state (generator and draw count)
// where Intn does.
func TestUniformMatchesIntn(t *testing.T) {
	ns := []int{1, 2, 3, 17, 129, 1<<20 + 1, 1 << 30, 3 << 29, 1<<31 - 1, 1<<31 + 5}
	pick := NewRNG(77)
	for len(ns) < 20 {
		ns = append(ns, 1+pick.Intn(1<<31-1))
	}
	for _, n := range ns {
		u := NewUniform(n)
		if u.N() != n {
			t.Fatalf("NewUniform(%d).N() = %d", n, u.N())
		}
		for _, seed := range []int64{0, 1, -7, 1<<31 + 3, DeriveSeed(int64(n), "uniform")} {
			got, want := NewRNG(seed), NewRNG(seed)
			for i := 0; i < 2200; i++ {
				k := 1
				if i >= 2000 {
					k = []int{0, 1, 8, 13}[i%4]
				}
				sum := 0
				for j := 0; j < k; j++ {
					sum += want.Intn(n)
				}
				if g := got.DrawSum(&u, k); g != sum {
					t.Fatalf("n=%d seed=%d call %d: DrawSum(%d) = %d, %d Intn calls sum to %d", n, seed, i, k, g, k, sum)
				}
				if g, w := got.Snapshot(), want.Snapshot(); g != w {
					t.Fatalf("n=%d seed=%d call %d: DrawSum(%d) left the stream at draw %d, Intn at %d", n, seed, i, k, g.Draws, w.Draws)
				}
			}
		}
	}
}

func TestNewUniformRejectsEmptyRange(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewUniform(%d) must panic, as Intn(%d) does", n, n)
				}
			}()
			NewUniform(n)
		}()
	}
}
