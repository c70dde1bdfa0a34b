package perfsim

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/nic"
	"repro/internal/sim"
)

// Effects is the compositional performance model of a defense: the
// machine-configuration delta the defense imposes, expressed in the same
// vocabulary the simulator is configured in. A stack of defenses
// composes its layers' Effects and the composed value builds ONE
// environment with every mechanism installed, so interacting overheads —
// partition pressure on top of randomization's per-packet allocation
// work — flow through the simulation together.
type Effects struct {
	// DDIOOff disables direct cache access: DMA traffic goes to memory.
	DDIOOff bool
	// Partition, when non-nil, enables adaptive I/O cache partitioning
	// with the given parameters.
	Partition *cache.PartitionConfig
	// Randomize selects a §VI-b ring-randomization mode; RandomizeNone
	// costs nothing.
	Randomize nic.RandomizeMode
	// RandomizeInterval is the packet count between periodic
	// re-randomizations (RandomizePeriodic only).
	RandomizeInterval int
}

// Compose overlays other onto e, mirroring Stack.Apply's semantics:
// layers of different defense types touch disjoint fields and both
// survive; same-type layers overwrite (last Apply wins). DDIOOff is
// sticky — no later layer re-enables DDIO.
func (e Effects) Compose(other Effects) Effects {
	out := e
	out.DDIOOff = e.DDIOOff || other.DDIOOff
	if other.Partition != nil {
		p := *other.Partition
		out.Partition = &p
	}
	if other.Randomize != nic.RandomizeNone {
		out.Randomize = other.Randomize
		out.RandomizeInterval = other.RandomizeInterval
	}
	return out
}

// OverheadPerPacket returns the amortized per-packet driver cost of the
// randomization component, in cycles — an exact function of the
// configured period (whole-ring reallocation cost spread over the
// interval).
func (e Effects) OverheadPerPacket() uint64 {
	switch e.Randomize {
	case nic.RandomizeFull:
		return reallocCostPerPacket
	case nic.RandomizePeriodic:
		if e.RandomizeInterval <= 0 {
			return reallocCostPerPacket
		}
		return uint64(reallocCostPerPacket * ringSize / e.RandomizeInterval)
	default:
		return 0
	}
}

// Fingerprint canonically identifies the machine configuration the
// effects build — the content-address component perf-measurement caches
// key on. Equal fingerprints mean interchangeable environments.
func (e Effects) Fingerprint() string {
	part := "none"
	if e.Partition != nil {
		part = fmt.Sprintf("%+v", *e.Partition)
	}
	return fmt.Sprintf("ddio_off=%t|partition=%s|randomize=%s/%d",
		e.DDIOOff, part, e.Randomize, e.RandomizeInterval)
}

// NewEnv builds a machine with every mechanism of the composed effects
// installed, at the given LLC size (bytes). LLC sizes map to way counts
// at fixed 8x2048 sets x 64 B geometry, the way Fig 14 shrinks the cache
// (20 MB -> 20 ways, 11 MB -> 11, 8 MB -> 8).
func NewEnv(e Effects, llcBytes int, seed int64) (*Env, error) {
	ways := llcBytes / (8 * 2048 * 64)
	if ways < 4 {
		return nil, fmt.Errorf("perfsim: LLC %d too small", llcBytes)
	}
	ccfg := cache.PaperConfig()
	ccfg.Ways = ways
	if e.DDIOOff {
		ccfg.DDIO = false
	}
	if e.Partition != nil {
		p := *e.Partition
		ccfg.Partition = &p
	}
	clock := sim.NewClock()
	c := cache.New(ccfg, clock)
	alloc := mem.NewAllocator(1<<30, sim.Derive(seed, "perf-alloc"))
	ncfg := nic.DefaultConfig()
	ncfg.RingSize = ringSize
	ncfg.Randomize = e.Randomize
	if e.Randomize == nic.RandomizePeriodic {
		ncfg.RandomizeInterval = e.RandomizeInterval
	}
	n, err := nic.New(ncfg, c, alloc, clock, sim.Derive(seed, "perf-nic"))
	if err != nil {
		return nil, err
	}
	return &Env{
		Effects:  e,
		Clock:    clock,
		Cache:    c,
		Alloc:    alloc,
		NIC:      n,
		RNG:      sim.Derive(seed, "perf-wl"),
		overhead: e.OverheadPerPacket(),
	}, nil
}

// RunNginx builds an environment for the composed effects and runs the
// Nginx workload — the cost-axis measurement Figs 14 and 16, the defense
// matrix, the frontier search and the defense example share.
func RunNginx(e Effects, llcBytes int, seed int64, cfg NginxConfig) (Metrics, error) {
	env, err := NewEnv(e, llcBytes, seed)
	if err != nil {
		return Metrics{}, err
	}
	return Nginx(env, cfg), nil
}
