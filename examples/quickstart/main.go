// Quickstart: build a simulated router, offer it a UDP flood, and see
// the difference between the interrupt-driven kernel (which livelocks)
// and the paper's polled kernel (which does not).
package main

import (
	"fmt"
	"log"

	"livelock"
)

func main() {
	const floodRate = 10000 // pkts/sec, far beyond the ~4700 pkts/sec MLFRR

	for _, kcfg := range []struct {
		name string
		cfg  livelock.Config
	}{
		{"interrupt-driven (4.2BSD-style)", livelock.Config{Mode: livelock.ModeUnmodified}},
		{"polled with quota 5 (the paper's fix)", livelock.Config{Mode: livelock.ModePolled, Quota: 5}},
	} {
		res, err := livelock.RunTrial(kcfg.cfg, floodRate, livelock.Warmup, livelock.Measure)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-40s offered %6.0f pkts/s → forwarded %6.0f pkts/s (p50 latency %v)\n",
			kcfg.name, res.InputRate, res.OutputRate, res.LatencyP50)
	}

	fmt.Println("\nWhere did the interrupt-driven kernel's packets go?")
	res, err := livelock.RunTrial(livelock.Config{Mode: livelock.ModeUnmodified},
		floodRate, livelock.Warmup, livelock.Measure)
	if err != nil {
		log.Fatal(err)
	}
	a := res.Accounting
	fmt.Printf("  dropped at ipintrq after device-level work was spent: %d\n", a.IPIntrQDrops)
	fmt.Printf("  dropped cheaply at the interface ring:                %d\n", a.RingDrops)
	fmt.Println("That wasted per-packet work is receive livelock (§6.3 of the paper).")
}
