// Defense demo (§VI-§VII): walk the defense registry and compare the
// mitigations on both axes the paper uses — does the attack still work,
// and what does the defense cost? Every defense is a first-class value
// from internal/defense: Apply reshapes the machine the spy attacks, and
// PerfEffects prices the same mitigation in the perfsim cost model.
//
// Run with: go run ./examples/defense
package main

import (
	"fmt"
	"log"

	"repro/internal/defense"
	"repro/internal/netmodel"
	"repro/internal/perfsim"
	"repro/internal/probe"
	"repro/internal/scenario"
	"repro/internal/testbed"
)

// demoDefenses is the subset walked by the demo: one representative per
// mitigation family keeps the example fast (each visibility measurement
// pays a full eviction-set build). The stack name is derived from values
// so retuning DefaultTimerJitter cannot orphan the lookup.
var demoDefenses = []string{
	"none", "no-ddio", "adaptive-partition",
	defense.NewStack(
		defense.AdaptivePartitioning{},
		defense.TimerCoarsening{Jitter: defense.DefaultTimerJitter},
	).Name(),
}

func main() {
	fmt.Println("== what the spy sees while packets flow (differential set activity) ==")
	for _, name := range demoDefenses {
		d, ok := defense.ByName(name)
		if !ok {
			log.Fatalf("defense %q not registered", name)
		}
		fmt.Printf("%-36s %5.1f%%\n", name+":", 100*visibility(d, 1))
	}
	fmt.Println("(DDIO off still leaks through driver reads; partitioning stops I/O evicting spy lines)")

	fmt.Println("\n== what the defenses cost (Nginx under load, p99 latency) ==")
	cfg := perfsim.DefaultNginxConfig()
	cfg.Requests = 10_000
	cfg.TargetRate = 140_000
	var baseP99 float64
	p99By := map[string]float64{} // several defenses build the same cost machine
	for _, d := range defense.All() {
		e := d.PerfEffects()
		p99, ok := p99By[e.Fingerprint()]
		if !ok {
			m, err := perfsim.RunNginx(e, 20<<20, 5, cfg)
			if err != nil {
				log.Fatal(err)
			}
			p99 = m.LatencyPercentile(99)
			p99By[e.Fingerprint()] = p99
		}
		if d.Name() == "none" {
			baseP99 = p99
			fmt.Printf("%-36s p99 %8.0f cycles (baseline)\n", d.Name(), p99)
		} else {
			fmt.Printf("%-36s p99 %8.0f cycles (%+.1f%%)\n", d.Name(), p99, 100*(p99-baseP99)/baseP99)
		}
	}
}

// visibility builds the defended demo machine, maps a spy onto it, and
// measures differential activity (busy minus idle) across every
// page-aligned set. Under the partition defense the spy's oversized
// eviction sets self-thrash, so raw activity is meaningless; what matters
// is whether packets change anything the spy can see.
func visibility(d defense.Defense, seed int64) float64 {
	spec := scenario.Baseline(false).WithDefense(d)
	spec.NoiseRate = 0
	spec.TimerNoise = 0 // a timer-coarsening defense still overrides this in Apply
	tb, err := testbed.New(spec.Options(seed))
	if err != nil {
		log.Fatal(err)
	}
	ccfg := tb.Cache().Config()
	spy, err := probe.NewSpy(tb, ccfg.AlignedSetCount()*ccfg.Ways*3)
	if err != nil {
		log.Fatal(err)
	}
	groups, err := spy.BuildAlignedEvictionSets(ccfg.Ways)
	if err != nil {
		log.Fatal(err)
	}
	mon := probe.NewMonitor(spy, groups)
	mean := func(samples []probe.Sample) float64 {
		var m float64
		for _, r := range probe.ActivityRate(samples) {
			m += r
		}
		return m / float64(len(groups))
	}
	idle := mean(mon.Collect(300, 100_000))
	wire := netmodel.NewWire(netmodel.GigabitRate)
	tb.SetTraffic(netmodel.NewConstantSource(wire, 256, 200_000, tb.Clock().Now(), -1))
	busy := mean(mon.Collect(300, 100_000))
	return busy - idle
}
