// Covert channel demo (§IV): a remote trojan that can only send broadcast
// frames transmits a secret message to a local spy with no network access,
// by encoding symbols in packet sizes and letting the spy read them off
// the rx ring's cache sets.
//
// Run with: go run ./examples/covertchannel
package main

import (
	"fmt"
	"log"

	repro "repro"
	"repro/internal/covert"
	"repro/internal/stats"
)

func main() {
	machine, err := repro.NewMachine(repro.DemoConfig(11))
	if err != nil {
		log.Fatal(err)
	}
	ring := machine.GroundTruthRing() // stands in for a completed recovery

	// Single-buffer channel: one isolated ring buffer carries one ternary
	// symbol per full ring revolution.
	message := stats.NewLFSR15(42).Symbols(96, 3)
	res, err := covert.RunSingleBuffer(machine.Spy, machine.Groups, ring, message,
		covert.Ternary, 28_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("single buffer:  %7.0f bps, %.1f%% error (%d symbols)\n",
		res.Bandwidth, 100*res.ErrorRate, len(res.Received))

	// Multi-buffer channel: monitoring n spaced buffers multiplies the
	// bandwidth (paper Fig 12a).
	for _, n := range []int{2, 4, 8} {
		r, err := covert.RunMultiBuffer(machine.Spy, machine.Groups, ring, n,
			message, covert.Ternary, 56_000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%2d buffers:     %7.0f bps, %.1f%% error\n",
			n, r.Bandwidth, 100*r.ErrorRate)
	}

	// Full chasing: one symbol per packet.
	ch := covert.NewChasingChannel(machine.Spy, machine.Groups, ring)
	r := ch.Run(message, covert.Ternary, 50_000, nil)
	fmt.Printf("full chasing:   %7.0f bps, %.1f%% error, %d sync losses\n",
		r.Bandwidth, 100*r.ErrorRate, r.OutOfSync)
}
