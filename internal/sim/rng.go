package sim

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/bits"
	"math/rand"
)

// RNG wraps math/rand with a convenience constructor so that every
// experiment takes a single root seed and derives independent streams for
// its components (page allocator, noise process, traffic jitter, ...).
// Derived streams are decorrelated by splitmix-style seed scrambling.
//
// An RNG's position in its stream is observable and restorable: the
// underlying source counts its draws, so a stream position is just
// (seed, draws), and a snapshot carries the generator state at that
// position so Restore can copy it back. This is what makes honest
// machine snapshotting possible — a restored world continues with exactly
// the random decisions the original would have made.
//
// The generator is sim's own copy of the stdlib source (alfg.go), held by
// value. The draws the simulator makes per simulated access — DrawSum for
// timer jitter, Int63 for noise addresses — call it directly; every other
// method comes from the embedded *rand.Rand over the same source, so all
// of them produce the stdlib stream value for value.
type RNG struct {
	//packetlint:transient stateless view over src; Restore repositions src and Rand follows
	*rand.Rand
	src *countedSource
}

// countedSource is the generator plus a draw counter. Both Int63 and
// Uint64 advance the generator by exactly one step, so the counter is the
// stream position after any interleaving of calls.
type countedSource struct {
	gen   rngSource
	seedv int64
	draws uint64
}

func (s *countedSource) Int63() int64 {
	s.draws++
	return s.gen.Int63()
}

func (s *countedSource) Uint64() uint64 {
	s.draws++
	return s.gen.Uint64()
}

func (s *countedSource) Seed(seed int64) {
	s.seedv = seed
	s.draws = 0
	s.gen.Seed(seed)
}

// RNGState is a snapshot of an RNG: its stream position (Seed, Draws)
// and the generator state at that position (607 words). Restore copies
// all of it back, so its cost does not depend on how many draws led
// there, and disk and memory hold the same words. States compare equal
// exactly when they restore identical streams at identical positions.
type RNGState struct {
	Seed  int64
	Draws uint64
	gen   rngSource
}

// NewRNG returns a deterministic RNG for the given seed.
func NewRNG(seed int64) *RNG {
	src := &countedSource{}
	src.Seed(seed)
	return &RNG{Rand: rand.New(src), src: src}
}

// Int63 is rand.Rand.Int63 without the interface call.
func (r *RNG) Int63() int64 { return r.src.Int63() }

// Intn is rand.Rand.Intn, value for value and draw for draw, with the
// n < 2³¹ path (rand.Rand.Int31n) calling the generator directly.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n > 1<<31-1 {
		return int(r.Rand.Int63n(int64(n)))
	}
	m := int32(n)
	if m&(m-1) == 0 { // power of two, can mask
		return int(int32(r.src.Int63()>>32) & (m - 1))
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(m))
	v := int32(r.src.Int63() >> 32)
	for v > max {
		v = int32(r.src.Int63() >> 32)
	}
	return int(v % m)
}

// Uniform is Intn(n) with its per-n work done once, for a stream that
// draws from one range over and over: every noisy spy timer read draws
// from [0, 2·TimerNoise]. RNG.DrawSum takes it.
type Uniform struct {
	n int
	// max is Intn's rejection bound below 2³¹: larger draws are redrawn.
	max int32
	// mult is ⌈2⁶⁴/n⌉, which turns v % n into a multiplication: for
	// v, n < 2³², v % n = hi64((mult·v mod 2⁶⁴)·n) (Lemire, Kaser and
	// Kurz, "Faster remainder by direct computation", 2019). Zero marks
	// the ranges Intn serves without that remainder: powers of two and
	// n ≥ 2³¹.
	mult uint64
}

// NewUniform precomputes the draw of Intn(n). It panics if n <= 0.
func NewUniform(n int) Uniform {
	if n <= 0 {
		panic("invalid argument to NewUniform")
	}
	u := Uniform{n: n}
	if n <= 1<<31-1 && n&(n-1) != 0 {
		u.max = int32((1 << 31) - 1 - (1<<31)%uint32(n))
		u.mult = ^uint64(0)/uint64(n) + 1
	}
	return u
}

// N returns the size of the range u draws from.
func (u Uniform) N() int { return u.n }

// DrawSum returns the sum of n Intn(u.N()) calls, value for value and
// draw for draw, leaving the RNG where those calls would, without Intn's
// two divisions per draw. It steps the generator inline (alfg.go's Uint64,
// rejections included) and adds the steps to the draw counter once: a
// fine-timer spy walk reads the timer once per line, so every walk draws
// its jitters here in one call.
func (r *RNG) DrawSum(u *Uniform, n int) int {
	sum := 0
	if u.mult == 0 {
		for ; n > 0; n-- {
			sum += r.Intn(u.n)
		}
		return sum
	}
	g := &r.src.gen
	tap, feed, steps := g.tap, g.feed, 0
	for ; n > 0; n-- {
		var v int32
		for {
			if tap--; tap < 0 {
				tap += rngLen
			}
			if feed--; feed < 0 {
				feed += rngLen
			}
			x := g.vec[feed] + g.vec[tap]
			g.vec[feed] = x
			steps++
			if v = int32(uint64(x) & rngMask >> 32); v <= u.max {
				break
			}
		}
		hi, _ := bits.Mul64(u.mult*uint64(v), uint64(u.n))
		sum += int(hi)
	}
	g.tap, g.feed = tap, feed
	r.src.draws += uint64(steps)
	return sum
}

// ShuffleStep returns the swap partner j in [0, i] that rand.Rand.Shuffle
// draws for position i, draw for draw: Shuffle over n elements is exactly
//
//	for i := n - 1; i > 0; i-- { j := r.ShuffleStep(i); swap(i, j) }
//
// It exists so a Fisher–Yates shuffle can be drawn lazily, one position at
// a time as positions are needed, while producing the stdlib permutation
// (mem.Allocator draws its free-frame order this way). Like Shuffle, it
// uses Int63n above 2³¹−2 and the unexported int31n, ported here, below.
// It panics for i < 1, where Shuffle makes no draw.
func (r *RNG) ShuffleStep(i int) int {
	if i < 1 {
		panic("invalid argument to ShuffleStep")
	}
	if i > 1<<31-1-1 {
		return int(r.Rand.Int63n(int64(i + 1)))
	}
	// rand.Rand.int31n, with Uint32 = Int63 >> 31.
	n := uint32(i + 1)
	prod := uint64(uint32(r.src.Int63()>>31)) * uint64(n)
	if low := uint32(prod); low < n {
		thresh := -n % n
		for low < thresh {
			prod = uint64(uint32(r.src.Int63()>>31)) * uint64(n)
			low = uint32(prod)
		}
	}
	return int(prod >> 32)
}

// Snapshot captures the RNG's stream position and generator state.
func (r *RNG) Snapshot() RNGState {
	return RNGState{Seed: r.src.seedv, Draws: r.src.draws, gen: r.src.gen}
}

// Restore moves the RNG, in place and without allocating, to a previously
// captured state by copying its generator in: O(state), independent of
// how many draws led there.
func (r *RNG) Restore(st *RNGState) {
	r.src.gen, r.src.seedv, r.src.draws = st.gen, st.Seed, st.Draws
}

// rngStateGob is RNGState's wire form.
type rngStateGob struct {
	Seed      int64
	Draws     uint64
	Tap, Feed int
	Vec       []int64
}

// GobEncode serializes the state (disk-backed warm starts).
func (st RNGState) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(rngStateGob{
		Seed: st.Seed, Draws: st.Draws, Tap: st.gen.tap, Feed: st.gen.feed, Vec: st.gen.vec[:],
	})
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode rebuilds a state from its serialized form. A generator no
// RNG could hold — a tap or feed index outside the register, a register
// of another length — is an error, so a corrupt disk artifact misses the
// cache instead of panicking in the first draw after Restore.
func (st *RNGState) GobDecode(b []byte) error {
	var w rngStateGob
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return err
	}
	if w.Tap < 0 || w.Tap >= rngLen || w.Feed < 0 || w.Feed >= rngLen {
		return fmt.Errorf("sim: RNG state tap %d / feed %d outside the %d-word register", w.Tap, w.Feed, rngLen)
	}
	if len(w.Vec) != rngLen {
		return fmt.Errorf("sim: RNG state register holds %d words, want %d", len(w.Vec), rngLen)
	}
	st.Seed, st.Draws = w.Seed, w.Draws
	st.gen.tap, st.gen.feed = w.Tap, w.Feed
	copy(st.gen.vec[:], w.Vec)
	return nil
}

// Reseed resets the RNG, in place, to the start of the stream for seed —
// equivalent to replacing it with NewRNG(seed) but allocation-free. The
// online-phase decorrelation hooks (testbed.ReseedOnline) run once per
// warm-started trial, so this sits on the rig-lease hot path.
func (r *RNG) Reseed(seed int64) {
	r.src.Seed(seed)
}

// DeriveSeed maps a root seed plus a stream label to a new seed that is
// decorrelated from the root and from every other label. It is the seed-
// space counterpart of Derive, used where a component needs an int64 seed
// (e.g. the experiment runner deriving per-trial seeds) rather than an
// RNG.
func DeriveSeed(root int64, label string) int64 {
	return finalizeSeed(mixLabel(uint64(root), label))
}

// DeriveSeedParts is DeriveSeed(root, a+b) without materializing the
// concatenated label. Call sites that derive per-rig online seeds from a
// constant prefix plus a rig label use it to keep the warm-trial lease
// path allocation-free.
func DeriveSeedParts(root int64, a, b string) int64 {
	return finalizeSeed(mixLabel(mixLabel(uint64(root), a), b))
}

// mixLabel folds a label into the running seed hash (FNV-style).
func mixLabel(h uint64, label string) uint64 {
	for _, c := range label {
		h ^= uint64(c)
		h *= 0x100000001b3 // FNV prime
	}
	return h
}

// finalizeSeed is the splitmix64 finalizer for avalanche.
func finalizeSeed(h uint64) int64 {
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	return int64(h)
}

// Derive returns a new independent RNG derived from this RNG's seed space
// and the given stream label. Two streams with different labels are
// decorrelated even though they share a root seed.
func Derive(root int64, label string) *RNG {
	return NewRNG(DeriveSeed(root, label))
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Jitter returns v multiplied by a uniform factor in [1-frac, 1+frac].
func (r *RNG) Jitter(v float64, frac float64) float64 {
	return v * (1 + frac*(2*r.Float64()-1))
}
