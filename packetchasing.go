// Package repro is a full reproduction of "Packet Chasing: Spying on
// Network Packets over a Cache Side-Channel" (Taram, Venkat, Tullsen,
// ISCA 2020) as a Go library.
//
// The hardware the paper attacks — a DDIO-enabled Xeon LLC fed by an Intel
// I350 NIC running the Linux IGB driver — is rebuilt as a deterministic
// cycle-level simulator (internal/cache, internal/nic, internal/netmodel,
// internal/mem, internal/sim), and the attack algorithms run unchanged on
// top of it: eviction-set construction and PRIME+PROBE (internal/probe),
// footprint and ring-sequence recovery plus online packet chasing
// (internal/chase), the remote covert channels (internal/covert), website
// fingerprinting (internal/fingerprint, internal/webtrace), and the §VII
// adaptive-partitioning defense with its performance evaluation
// (internal/perfsim).
//
// This root package is the façade: it wires a machine together and exposes
// the attack pipeline in a few calls. See examples/quickstart for the
// five-minute tour and internal/experiments for the code that regenerates
// every table and figure of the paper.
package repro

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/chase"
	"repro/internal/nic"
	"repro/internal/probe"
	"repro/internal/testbed"
)

// MachineConfig configures a simulated victim machine plus the spy tenant.
type MachineConfig struct {
	// Testbed is the machine configuration (LLC, NIC/driver, memory,
	// noise).
	Testbed testbed.Options
	// SpyPages is how much memory the spy maps for eviction sets; 0 means
	// 3x(aligned sets x ways) pages, comfortably enough for full group
	// discovery.
	SpyPages int
	// Sequencer parameterizes ring-sequence recovery.
	Sequencer chase.SequencerParams
}

// DemoConfig is a structurally faithful scaled machine (2 MB 8-way LLC, 64
// aligned sets, 64-buffer ring) on which every phase runs in seconds.
func DemoConfig(seed int64) MachineConfig {
	opts := testbed.DefaultOptions(seed)
	opts.Cache = cache.ScaledConfig(2, 2048, 8)
	opts.NIC = nic.DefaultConfig()
	opts.NIC.RingSize = 64
	params := chase.DefaultSequencerParams()
	params.Samples = 8_000
	params.WindowSize = 32
	params.ProbeRate = 33_000
	params.ActivityCutoff = 0.2
	return MachineConfig{Testbed: opts, Sequencer: params}
}

// Machine is an assembled victim machine with a resident spy that has
// completed eviction-set discovery.
type Machine struct {
	Config  MachineConfig
	Testbed *testbed.Testbed
	Spy     *probe.Spy
	// Groups are the spy's page-aligned conflict groups (one eviction set
	// per page-aligned cache-set group).
	Groups []probe.EvictionSet
}

// NewMachine builds the machine and runs the spy's one-time eviction-set
// discovery.
func NewMachine(cfg MachineConfig) (*Machine, error) {
	tb, err := testbed.New(cfg.Testbed)
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	pages := cfg.SpyPages
	if pages == 0 {
		pages = cfg.Testbed.Cache.AlignedSetCount() * cfg.Testbed.Cache.Ways * 3
	}
	spy, err := probe.NewSpy(tb, pages)
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	groups, err := spy.BuildAlignedEvictionSets(cfg.Testbed.Cache.Ways)
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return &Machine{Config: cfg, Testbed: tb, Spy: spy, Groups: groups}, nil
}

// DiscoverFootprint runs the §III-B footprint experiment: measure idle
// activity, call startTraffic, measure again, and report the groups that
// lit up.
func (m *Machine) DiscoverFootprint(startTraffic func()) chase.FootprintResult {
	return chase.RecoverFootprint(m.Spy, m.Groups, chase.DefaultFootprintParams(), startTraffic)
}

// RecoverRingSequence runs Algorithm 1 end to end (base window plus
// candidate insertion) and returns the recovered ring as group ids. The
// caller must have receive traffic flowing (the sequencer learns from
// packet-driven evictions).
func (m *Machine) RecoverRingSequence() ([]int, error) {
	seq := &chase.Sequencer{Spy: m.Spy, Groups: m.Groups, Params: m.Config.Sequencer}
	return seq.RecoverFull()
}

// NewChaser builds the online-phase chaser for the given ring (group
// ids). Build the chaser BEFORE installing the traffic you want to
// observe: monitor calibration consumes simulated time.
func (m *Machine) NewChaser(ring []int) *chase.Chaser {
	return chase.NewChaser(m.Spy, m.Groups, ring, chase.DefaultChaserConfig())
}

// --- Ground-truth oracles (driver instrumentation; never used by attack
// code, only for evaluation) ---

// GroundTruthRing returns the true ring order as group ids, rotated so
// that index 0 is the buffer the next packet will fill (a fresh chaser
// can start immediately instead of resynchronizing).
func (m *Machine) GroundTruthRing() []int {
	ccfg := m.Testbed.Cache().Config()
	byCanon := map[int]int{}
	for _, g := range m.Groups {
		byCanon[ccfg.AlignedIndexOf(ccfg.GlobalSet(g.Lines[0]))] = g.ID
	}
	truth := m.Testbed.NIC().RingAlignedSets(ccfg)
	ring := make([]int, len(truth))
	head := m.Testbed.NIC().NextDescriptor()
	for i, s := range truth {
		ring[i] = byCanon[s]
	}
	return append(ring[head:], ring[:head]...)
}

// CanonicalSequence maps a group-id sequence to canonical page-aligned set
// indices, the representation ground-truth comparisons use.
func (m *Machine) CanonicalSequence(ring []int) []int {
	ccfg := m.Testbed.Cache().Config()
	canon := map[int]int{}
	for _, g := range m.Groups {
		canon[g.ID] = ccfg.AlignedIndexOf(ccfg.GlobalSet(g.Lines[0]))
	}
	out := make([]int, len(ring))
	for i, g := range ring {
		out[i] = canon[g]
	}
	return out
}
