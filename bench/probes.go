package main

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/netmodel"
	"repro/internal/probe"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// substrate runs fixed-input probes of the layers below the experiments —
// testbed construction, the offline eviction-set build, cache reads, the
// spy's conflict test and NIC receive — through their public functions.
// Their inputs never depend on the workload, so they read the same work on
// every run and only their times move.
func substrate(tr *tracer) (map[string]float64, error) {
	m := map[string]float64{}
	probeSpan := func(name string, f func() error) error {
		return tr.span("substrate/"+name, "probe", "substrate", f)
	}
	err := tr.span("substrate", "substrate", "", func() error {
		demo := scenario.Baseline(false).Options(1)

		// The offline phase of one demo rig, as every search candidate
		// pays it: testbed, spy mapping and calibration, eviction sets.
		if err := probeSpan("offline.build_demo", func() error {
			start := clock()
			tb, err := testbed.New(demo)
			if err != nil {
				return err
			}
			spy, err := probe.NewSpy(tb, demo.Cache.AlignedSetCount()*demo.Cache.Ways*3)
			if err != nil {
				return err
			}
			groups, err := spy.BuildAlignedEvictionSets(demo.Cache.Ways)
			if err != nil {
				return err
			}
			if len(groups) == 0 {
				return fmt.Errorf("offline build found no eviction sets")
			}
			took := since(start)
			accesses := float64(tb.Cache().Stats().CPUAccesses)
			m["offline.build_demo_s"] = took
			m["offline.cpu_accesses_demo"] = accesses
			m["cache.ns_per_access_demo"] = took * 1e9 / accesses
			return nil
		}); err != nil {
			return err
		}

		if err := probeSpan("testbed.new_demo", func() error {
			const n = 10
			times := make([]float64, n)
			for i := range times {
				start := clock()
				if _, err := testbed.New(demo); err != nil {
					return err
				}
				times[i] = since(start)
			}
			m["testbed.new_s_demo"] = median(times)
			return nil
		}); err != nil {
			return err
		}

		if err := probeSpan("cache.read_paper", func() error {
			c := cache.New(cache.PaperConfig(), sim.NewClock())
			m["cache.read_ns_paper"] = perOp(1<<19, func(i int) { c.Read(uint64(i*64) % (1 << 28)) })
			return nil
		}); err != nil {
			return err
		}

		if err := probeSpan("probe.evicts", func() error {
			tb, err := testbed.New(testbed.DefaultOptions(3))
			if err != nil {
				return err
			}
			spy, err := probe.NewSpy(tb, 8)
			if err != nil {
				return err
			}
			victim := spy.PageBase(0)
			set := make([]uint64, 16)
			for i := range set {
				set[i] = spy.PageBase(i%spy.Pages()) + uint64(i)*64
			}
			m["probe.evicts_ns"] = perOp(1<<14, func(int) { spy.Evicts(set, victim) })
			return nil
		}); err != nil {
			return err
		}

		return probeSpan("nic.receive", func() error {
			tb, err := testbed.New(testbed.DefaultOptions(1))
			if err != nil {
				return err
			}
			f := netmodel.Frame{Size: 256}
			m["nic.receive_ns"] = perOp(1<<16, func(int) {
				f.Arrival = tb.Clock().Now()
				tb.NIC().Receive(f)
				tb.NIC().ProcessDriver(tb.Clock().Now() + 10_000)
				tb.Clock().Advance(5_000)
			})
			return nil
		})
	})
	return m, err
}

// perOp times n calls of op in five batches and returns the median batch's
// nanoseconds per call.
func perOp(n int, op func(i int)) float64 {
	const batches = 5
	times := make([]float64, batches)
	for b := range times {
		start := clock()
		for i := 0; i < n/batches; i++ {
			op(b*n/batches + i)
		}
		times[b] = since(start) * 1e9 / float64(n/batches)
	}
	return median(times)
}
