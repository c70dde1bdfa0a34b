// Package scenario turns the testbed's scattered knobs into declarative,
// nameable experiment conditions. A Spec captures everything that defines
// the machine an attack runs on — cache and NIC geometry, background-noise
// level, timer granularity and platform defense — so sensitivity studies
// sweep structured values instead of hand-editing option structs. Frame
// streams are not part of a scenario: each is a netmodel source built
// where it is sent.
//
// The companion Grid type (grid.go) enumerates cartesian products of
// scenario axes for the runner's sweep mode.
package scenario

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/defense"
	"repro/internal/nic"
	"repro/internal/testbed"
)

// Spec is a declarative experiment condition. The zero value of every
// geometry field means "the paper machine's value", so a Spec only states
// what a scenario changes.
type Spec struct {
	// Name identifies the scenario in reports and derived RNG streams.
	Name string

	// CacheSlices, CacheSetsPerSlice, CacheWays select the LLC geometry;
	// all zero selects the paper's 8x2048x20 (20 MB) LLC.
	CacheSlices, CacheSetsPerSlice, CacheWays int
	// RingSize is the NIC rx descriptor count; 0 selects the IGB default
	// (256).
	RingSize int
	// MemBytes is the physical memory size; 0 selects 1 GiB.
	MemBytes uint64

	// NoiseRate is the background process's cache-line touch rate in
	// accesses/second (ambient co-tenant activity).
	NoiseRate float64
	// TimerNoise is the magnitude of the spy timer's one-sided jitter in
	// cycles: each latency reading gains a uniform value in
	// [0, 2*TimerNoise] (mean TimerNoise; a coarse timer only ever
	// over-reports). 0 = perfect timer.
	TimerNoise uint64

	// Defense is the platform mitigation the machine runs under; nil is
	// the vulnerable stock machine. The defense is applied to the built
	// Options after every other field — it reshapes the machine for the
	// offline and online phases alike (a platform defense cannot be
	// prepared around), and survives Offline() normalization, so
	// warm-start clones never cross a defense boundary.
	Defense defense.Defense
}

// WithDefense returns a copy of the spec running under the given
// mitigation (nil clears it).
func (s Spec) WithDefense(d defense.Defense) Spec {
	s.Defense = d
	return s
}

// Baseline returns the machine the experiment registry has always run at:
// the paper machine when paper is true, otherwise the structurally
// faithful scaled demo machine (2 slices x 2048 sets x 8 ways, 64-buffer
// ring). Experiments install their own traffic.
func Baseline(paper bool) Spec {
	s := Spec{Name: "baseline", NoiseRate: 20_000, TimerNoise: 4}
	if !paper {
		s.Name = "baseline-demo"
		s.CacheSlices, s.CacheSetsPerSlice, s.CacheWays = 2, 2048, 8
		s.RingSize = 64
	}
	return s
}

// Validate checks the spec is buildable.
func (s Spec) Validate() error {
	geom := []int{s.CacheSlices, s.CacheSetsPerSlice, s.CacheWays}
	zero, set := 0, 0
	for _, v := range geom {
		if v == 0 {
			zero++
		} else if v > 0 {
			set++
		} else {
			return fmt.Errorf("scenario %q: negative cache geometry", s.Name)
		}
	}
	if zero != len(geom) && set != len(geom) {
		return fmt.Errorf("scenario %q: cache geometry must be fully specified or fully defaulted", s.Name)
	}
	if s.RingSize < 0 {
		return fmt.Errorf("scenario %q: negative ring size", s.Name)
	}
	if s.NoiseRate < 0 {
		return fmt.Errorf("scenario %q: negative noise rate", s.Name)
	}
	return nil
}

// Options builds the testbed options the spec describes. This is the only
// path from a scenario to a machine: experiments that used to assemble
// testbed.Options by hand now go through a Spec.
func (s Spec) Options(seed int64) testbed.Options {
	opts := testbed.DefaultOptions(seed)
	if s.CacheSlices > 0 {
		opts.Cache = cache.ScaledConfig(s.CacheSlices, s.CacheSetsPerSlice, s.CacheWays)
	} else {
		opts.Cache = cache.PaperConfig()
	}
	opts.NIC = nic.DefaultConfig()
	if s.RingSize > 0 {
		opts.NIC.RingSize = s.RingSize
	}
	if s.MemBytes > 0 {
		opts.MemBytes = s.MemBytes
	}
	opts.NoiseRate = s.NoiseRate
	opts.TimerNoise = s.TimerNoise
	if s.Defense != nil {
		s.Defense.Apply(&opts)
	}
	return opts
}

// OnlineEnv returns the environment knobs the online (measurement) phase
// runs under: the spec's noise rate and timer jitter with the defense's
// overrides applied. Clones restored from an offline snapshot apply these
// rather than the raw spec fields, so a timer-coarsening defense is not
// silently undone by a sweep cell's reference timer value.
func (s Spec) OnlineEnv() (noiseRate float64, timerNoise uint64) {
	opts := testbed.Options{NoiseRate: s.NoiseRate, TimerNoise: s.TimerNoise}
	if s.Defense != nil {
		s.Defense.Apply(&opts)
	}
	return opts.NoiseRate, opts.TimerNoise
}

// Reference environment the offline phase of a phase-split experiment
// runs under. These match Baseline: the attacker prepares (builds eviction
// sets, calibrates) in the conditions it can arrange, and only the online
// measurement phase faces a scenario's swept noise and timer conditions.
const (
	OfflineNoiseRate  = 20_000
	OfflineTimerNoise = 4
)

// Offline returns the spec the offline phase runs at: same machine
// geometry, but the reference noise/timer environment. Two scenario cells whose Offline specs build the same options
// (under equal offline seeds) share one prepared machine.
func (s Spec) Offline() Spec {
	s.NoiseRate = OfflineNoiseRate
	s.TimerNoise = OfflineTimerNoise
	return s
}
