// Package defense is the first-class mitigation surface of the
// reproduction: every defense the paper evaluates (§VI software
// mitigations, §VII adaptive I/O cache partitioning) plus timer
// coarsening is a value implementing one small interface, discoverable
// through a registry, and composable into layered stacks.
//
// A Defense acts on both axes the paper's second half measures:
//
//   - Apply(*testbed.Options) reshapes the machine the attack runs on —
//     cache features, driver behaviour, timer granularity — so "does the
//     attack still work" is answered by running any attack experiment on
//     the defended machine;
//   - PerfEffects() returns the perfsim machine-configuration delta that
//     models the same mitigation, so "what does it cost" is answered by
//     the Figs 14-16 performance model.
//
// A defense acts on the attack only through Apply, and the artifact store
// keys every option Apply can write — TimerNoise included, so a
// timer-coarsening defense, which the attacker's offline phase runs
// under, never shares a prepared machine with the stock one.
package defense

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/nic"
	"repro/internal/perfsim"
	"repro/internal/testbed"
)

// Defense is one platform mitigation. Implementations are immutable
// values: Apply copies state into the options, never the other way.
type Defense interface {
	// Name is the registry identifier ("none", "adaptive-partition", ...).
	Name() string
	// Apply installs the mitigation into the machine options, before the
	// testbed is built. It affects the offline and online phases alike: a
	// platform defense is not something the attacker can prepare around.
	Apply(*testbed.Options)
	// PerfEffects returns the compositional performance model of the
	// defense: the machine-configuration delta perfsim installs to
	// measure its cost. Stacks compose their layers' effects, so
	// interacting overheads are simulated together rather than reduced
	// to a dominant layer.
	PerfEffects() perfsim.Effects
}

// Validate reports whether the defense's parameters describe a machine
// the simulator can build: search mutators and API clients construct
// defenses from raw numbers, and a zero or negative period/way-count
// must fail loudly here instead of silently building a nonsense
// candidate. Parameter-free defenses are always valid.
func Validate(d Defense) error {
	if v, ok := d.(interface{ Validate() error }); ok {
		return v.Validate()
	}
	return nil
}

// NoDefense is the vulnerable stock machine: DDIO on, stock IGB driver,
// fine-grained timer.
type NoDefense struct{}

func (NoDefense) Name() string                 { return "none" }
func (NoDefense) Apply(*testbed.Options)       {}
func (NoDefense) PerfEffects() perfsim.Effects { return perfsim.Effects{} }

// DisableDDIO turns off Data Direct I/O: DMA writes go to memory instead
// of allocating into the LLC. The paper shows the attack survives in a
// degraded form (driver reads still leak), at a steep memory-traffic cost
// (Fig 15).
type DisableDDIO struct{}

func (DisableDDIO) Name() string                 { return "no-ddio" }
func (DisableDDIO) PerfEffects() perfsim.Effects { return perfsim.Effects{DDIOOff: true} }

func (DisableDDIO) Apply(o *testbed.Options) { o.Cache.DDIO = false }

// RingRandomization is the §VI-b software mitigation: re-allocate rx
// buffer pages so the ring's cache footprint stops being stable.
// Interval 0 is the full variant (a fresh page per packet); a positive
// interval re-allocates the whole ring every Interval packets.
type RingRandomization struct {
	// Interval is the packet count between whole-ring re-randomizations;
	// 0 selects full per-packet randomization.
	Interval int
}

// NewRingRandomization builds a validated ring-randomization defense:
// interval 0 is the full per-packet variant, positive intervals are
// periodic, negative intervals are rejected.
func NewRingRandomization(interval int) (RingRandomization, error) {
	r := RingRandomization{Interval: interval}
	return r, r.Validate()
}

// Validate rejects negative re-randomization intervals (0 means full).
func (r RingRandomization) Validate() error {
	if r.Interval < 0 {
		return fmt.Errorf("defense: ring-randomization interval %d is negative", r.Interval)
	}
	return nil
}

func (r RingRandomization) Name() string {
	if r.Interval == 0 {
		return "ring-full-random"
	}
	return "ring-partial-" + compactCount(r.Interval)
}

func (r RingRandomization) Apply(o *testbed.Options) {
	if r.Interval == 0 {
		o.NIC.Randomize = nic.RandomizeFull
		o.NIC.RandomizeInterval = 0
		return
	}
	o.NIC.Randomize = nic.RandomizePeriodic
	o.NIC.RandomizeInterval = r.Interval
}

// PerfEffects models the configured interval exactly: the amortized
// per-packet cost is a function of the period.
func (r RingRandomization) PerfEffects() perfsim.Effects {
	if r.Interval == 0 {
		return perfsim.Effects{Randomize: nic.RandomizeFull}
	}
	return perfsim.Effects{Randomize: nic.RandomizePeriodic, RandomizeInterval: r.Interval}
}

// TimerCoarsening denies the attacker a fine-grained timer (§VI-a): every
// latency reading gains one-sided jitter of the given magnitude. Unlike
// the sweep axis of the same name, the coarse timer applies during the
// attacker's offline phase too — a platform defense cannot be prepared
// around — which is why artifact keys carry TimerNoise even though the
// option fingerprint excludes it.
type TimerCoarsening struct {
	// Jitter is the magnitude in cycles (see testbed.Options.TimerNoise).
	Jitter uint64
}

// NewTimerCoarsening builds a validated timer-coarsening defense; a
// zero jitter is rejected (it coarsens nothing — use NoDefense).
func NewTimerCoarsening(jitter uint64) (TimerCoarsening, error) {
	t := TimerCoarsening{Jitter: jitter}
	return t, t.Validate()
}

// Validate rejects a zero coarsening granularity.
func (t TimerCoarsening) Validate() error {
	if t.Jitter == 0 {
		return fmt.Errorf("defense: timer-coarsening jitter must be positive")
	}
	return nil
}

func (t TimerCoarsening) Name() string                 { return fmt.Sprintf("timer-coarse-%d", t.Jitter) }
func (t TimerCoarsening) Apply(o *testbed.Options)     { o.TimerNoise = t.Jitter }
func (t TimerCoarsening) PerfEffects() perfsim.Effects { return perfsim.Effects{} }

// AdaptivePartitioning is the paper's §VII defense: I/O allocations are
// confined to an adaptive per-set way quota and can never evict CPU
// lines.
type AdaptivePartitioning struct {
	// Config overrides the §VII parameters; nil selects
	// cache.DefaultPartitionConfig().
	Config *cache.PartitionConfig
}

func (AdaptivePartitioning) Name() string { return "adaptive-partition" }

func (a AdaptivePartitioning) config() *cache.PartitionConfig {
	if a.Config != nil {
		return a.Config
	}
	return cache.DefaultPartitionConfig()
}

func (a AdaptivePartitioning) Apply(o *testbed.Options) {
	cfg := *a.config()
	o.Cache.Partition = &cfg
}

func (a AdaptivePartitioning) PerfEffects() perfsim.Effects {
	cfg := *a.config()
	return perfsim.Effects{Partition: &cfg}
}

// NewAdaptivePartitioning builds a validated partitioning defense; nil
// selects the §VII default parameters.
func NewAdaptivePartitioning(cfg *cache.PartitionConfig) (AdaptivePartitioning, error) {
	a := AdaptivePartitioning{Config: cfg}
	return a, a.Validate()
}

// Validate rejects partition parameters no machine can run: a
// non-positive adaptation period, inverted thresholds, or a way quota
// that is zero, negative, or inverted. The upper way bound against the
// concrete cache geometry is checked at build time (cache.Config
// .Validate), since the defense does not know the machine's way count.
func (a AdaptivePartitioning) Validate() error {
	cfg := a.config()
	switch {
	case cfg.Period == 0:
		return fmt.Errorf("defense: partition period must be positive")
	case cfg.TLow > cfg.THigh:
		return fmt.Errorf("defense: partition thresholds inverted (low %d > high %d)", cfg.TLow, cfg.THigh)
	case cfg.MinIOWays < 1:
		return fmt.Errorf("defense: partition min I/O ways %d must be at least 1", cfg.MinIOWays)
	case cfg.MaxIOWays < cfg.MinIOWays:
		return fmt.Errorf("defense: partition way quota inverted (min %d > max %d)", cfg.MinIOWays, cfg.MaxIOWays)
	}
	return nil
}

// Stack layers several defenses: Apply runs them in the given order, so
// layers that write the same option (last Apply wins) keep their order —
// NewStack(TimerCoarsening{32}, TimerCoarsening{64}) and its reverse
// build different machines.
type Stack struct {
	Layers []Defense
}

// NewStack builds a layered defense, flattening nested stacks into one
// list of leaf layers.
func NewStack(layers ...Defense) Stack {
	var flat []Defense
	for _, d := range layers {
		if s, ok := d.(Stack); ok {
			flat = append(flat, s.Layers...)
			continue
		}
		flat = append(flat, d)
	}
	return Stack{Layers: flat}
}

func (s Stack) Name() string {
	names := make([]string, len(s.Layers))
	for i, d := range s.Layers {
		names[i] = d.Name()
	}
	return strings.Join(names, "+")
}

func (s Stack) Apply(o *testbed.Options) {
	for _, d := range s.Layers {
		d.Apply(o)
	}
}

// PerfEffects composes the layers' effects in application order, so the
// cost model sees one machine with every mechanism installed — the
// partition pressure AND the randomization allocations together.
func (s Stack) PerfEffects() perfsim.Effects {
	var e perfsim.Effects
	for _, d := range s.Layers {
		e = e.Compose(d.PerfEffects())
	}
	return e
}

// Validate checks every layer that carries parameters.
func (s Stack) Validate() error {
	for _, d := range s.Layers {
		if err := Validate(d); err != nil {
			return fmt.Errorf("layer %s: %w", d.Name(), err)
		}
	}
	return nil
}

// DefaultTimerJitter is the registry's timer-coarsening magnitude: well
// past the ~40-cycle hit/miss edge the decoder keys on, while still below
// the ~100-cycle point where demo-scale offline preparation collapses
// entirely (the attack should degrade measurably, not trivially fail to
// build).
const DefaultTimerJitter = 64

// All returns the defense registry in evaluation order: the vulnerable
// baseline first, then the §VI software mitigations, timer coarsening,
// the §VII partitioning defense, and a defense-in-depth stack. The
// matrix_defense experiment runs every attack against every entry.
func All() []Defense {
	return []Defense{
		NoDefense{},
		DisableDDIO{},
		RingRandomization{},
		RingRandomization{Interval: 1_000},
		RingRandomization{Interval: 10_000},
		TimerCoarsening{Jitter: DefaultTimerJitter},
		AdaptivePartitioning{},
		NewStack(AdaptivePartitioning{}, TimerCoarsening{Jitter: DefaultTimerJitter}),
	}
}

// ByName returns the registered defense with the given name.
func ByName(name string) (Defense, bool) {
	for _, d := range All() {
		if d.Name() == name {
			return d, true
		}
	}
	return nil, false
}

// Names lists the registry names in registry order.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, d := range all {
		out[i] = d.Name()
	}
	return out
}

// compactCount renders a packet count the way the paper labels it: 1000
// -> "1k", 10000 -> "10k", anything not a clean multiple stays decimal.
func compactCount(n int) string {
	if n%1_000 == 0 {
		return fmt.Sprintf("%dk", n/1_000)
	}
	return fmt.Sprint(n)
}
