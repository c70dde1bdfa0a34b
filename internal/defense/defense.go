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
//   - PerfScheme() names the perfsim configuration that models the same
//     mitigation, so "what does it cost" is answered by the Figs 14-16
//     performance model.
//
// Fingerprint() canonically identifies the machine change a defense
// makes, for scenario.Spec.Fingerprint. It feeds no warm-start artifact
// key: a defense acts only through Apply, and the artifact store keys
// every option Apply can write — TimerNoise included, so a
// timer-coarsening defense, which the attacker's offline phase runs
// under, never shares a prepared machine with the stock one.
package defense

import (
	"fmt"
	"sort"
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
	// Fingerprint canonically identifies the machine change the defense
	// makes. Equal fingerprints mean defenses that Apply the same options.
	Fingerprint() string
	// Apply installs the mitigation into the machine options, before the
	// testbed is built. It affects the offline and online phases alike: a
	// platform defense is not something the attacker can prepare around.
	Apply(*testbed.Options)
	// PerfScheme names the perfsim scheme modeling this defense's
	// performance cost (the Figs 14-16 axis). Defenses with no
	// server-side cost (timer coarsening) return the vulnerable baseline
	// scheme.
	//
	// Deprecated: the scheme menu cannot represent parameterized
	// defenses (arbitrary randomization periods) or stacks with more
	// than one costly layer. Use PerfEffects, which composes exactly;
	// PerfScheme remains as the nearest-menu-point approximation.
	PerfScheme() perfsim.Scheme
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
func (NoDefense) Fingerprint() string          { return "none" }
func (NoDefense) Apply(*testbed.Options)       {}
func (NoDefense) PerfScheme() perfsim.Scheme   { return perfsim.SchemeDDIO }
func (NoDefense) PerfEffects() perfsim.Effects { return perfsim.Effects{} }

// DisableDDIO turns off Data Direct I/O: DMA writes go to memory instead
// of allocating into the LLC. The paper shows the attack survives in a
// degraded form (driver reads still leak), at a steep memory-traffic cost
// (Fig 15).
type DisableDDIO struct{}

func (DisableDDIO) Name() string                 { return "no-ddio" }
func (DisableDDIO) Fingerprint() string          { return "no-ddio" }
func (DisableDDIO) PerfScheme() perfsim.Scheme   { return perfsim.SchemeNoDDIO }
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

func (r RingRandomization) Fingerprint() string { return r.Name() }

func (r RingRandomization) Apply(o *testbed.Options) {
	if r.Interval == 0 {
		o.NIC.Randomize = nic.RandomizeFull
		o.NIC.RandomizeInterval = 0
		return
	}
	o.NIC.Randomize = nic.RandomizePeriodic
	o.NIC.RandomizeInterval = r.Interval
}

// PerfScheme maps the interval onto the three randomization points the
// performance model carries (Fig 16): full, 1k-periodic, 10k-periodic.
// Intervals in between round toward the closer modeled cost.
func (r RingRandomization) PerfScheme() perfsim.Scheme {
	switch {
	case r.Interval == 0:
		return perfsim.SchemeFullRandom
	case r.Interval <= 3_000:
		return perfsim.SchemePartial1k
	default:
		return perfsim.SchemePartial10k
	}
}

// PerfEffects models the configured interval exactly: the amortized
// per-packet cost is a function of the period, not the nearest of the
// three menu points PerfScheme rounds to.
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
func (t TimerCoarsening) Fingerprint() string          { return t.Name() }
func (t TimerCoarsening) Apply(o *testbed.Options)     { o.TimerNoise = t.Jitter }
func (t TimerCoarsening) PerfScheme() perfsim.Scheme   { return perfsim.SchemeDDIO }
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

func (a AdaptivePartitioning) Fingerprint() string {
	return fmt.Sprintf("adaptive-partition%+v", *a.config())
}

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

func (AdaptivePartitioning) PerfScheme() perfsim.Scheme { return perfsim.SchemeAdaptive }

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

// Stack layers several defenses: Apply runs them in the given order.
// Order is preserved for application and naming, but canonicalized in
// Fingerprint() exactly as far as is sound: layers of *different*
// concrete types touch disjoint option fields and commute, so their
// order is sorted away and permuted stacks share a fingerprint;
// layers of the *same* type write the same fields (last Apply wins), so
// their relative order is semantic and survives canonicalization —
// NewStack(TimerCoarsening{32}, TimerCoarsening{64}) and its reverse
// prepare different machines and must never collide. Defense
// implementations outside this package must follow the same contract:
// distinct types touch disjoint fields.
type Stack struct {
	Layers []Defense
}

// NewStack builds a layered defense. It flattens nested stacks so
// fingerprint canonicalization sees every leaf.
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

// flatten returns the stack's leaf layers in application order,
// expanding nested stacks. NewStack already flattens at construction,
// but Layers is exported, so a hand-built literal may still nest — and
// canonicalization must always group by *leaf* type, or a nested stack
// would be treated as one opaque commuting layer and two different
// machines could share a fingerprint.
func (s Stack) flatten() []Defense {
	out := make([]Defense, 0, len(s.Layers))
	for _, d := range s.Layers {
		if n, ok := d.(Stack); ok {
			out = append(out, n.flatten()...)
			continue
		}
		out = append(out, d)
	}
	return out
}

func (s Stack) Fingerprint() string {
	// Group leaves by concrete type, preserving application order within
	// each group (see the type comment for why), then sort the groups.
	order := []string{}
	groups := map[string][]string{}
	for _, d := range s.flatten() {
		k := fmt.Sprintf("%T", d)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], d.Fingerprint())
	}
	parts := make([]string, len(order))
	for i, k := range order {
		parts[i] = strings.Join(groups[k], ">")
	}
	sort.Strings(parts)
	return "stack[" + strings.Join(parts, ",") + "]"
}

func (s Stack) Apply(o *testbed.Options) {
	for _, d := range s.Layers {
		d.Apply(o)
	}
}

// PerfEffects composes the layers' effects in application order, so the
// cost model sees one machine with every mechanism installed — the
// partition pressure AND the randomization allocations, not whichever
// single layer ranks costlier.
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

// PerfScheme returns the costliest component's scheme: perfsim models one
// mitigation at a time, and a stack's dominant cost is the one worth
// reporting on the overhead axis.
//
// Deprecated: the dominant-layer rule drops interacting overheads; use
// PerfEffects, which composes every layer into one machine.
func (s Stack) PerfScheme() perfsim.Scheme {
	best := perfsim.SchemeDDIO
	for _, d := range s.Layers {
		if sc := d.PerfScheme(); costRank(sc) > costRank(best) {
			best = sc
		}
	}
	return best
}

// costRank orders schemes by their measured performance impact (Figs
// 14-16): the baseline costs nothing, periodic randomization is amortized
// noise, adaptive partitioning costs a few percent, disabling DDIO
// multiplies memory traffic, and full randomization pays an allocation
// per packet (~+41.8% p99 in the paper).
func costRank(s perfsim.Scheme) int {
	switch s {
	case perfsim.SchemePartial10k:
		return 1
	case perfsim.SchemePartial1k:
		return 2
	case perfsim.SchemeAdaptive:
		return 3
	case perfsim.SchemeNoDDIO:
		return 4
	case perfsim.SchemeFullRandom:
		return 5
	default:
		return 0
	}
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
