// Userprogress: §7's experiment — a compute-bound process on a flooded
// router. Without the cycle limiter the router forwards at full speed
// but the process makes no measurable progress; with a cycle threshold,
// the kernel explicitly regulates packet-processing CPU and the process
// keeps a predictable share.
package main

import (
	"fmt"
	"log"

	"livelock"
)

func main() {
	const floodRate = 10000

	fmt.Printf("compute-bound process on a router flooded at %d pkts/sec:\n\n", floodRate)
	fmt.Printf("%-24s %12s %14s\n", "cycle-limit threshold", "user CPU %", "forwarded pps")
	for _, th := range []float64{0, 0.25, 0.50, 0.75} {
		cfg := livelock.Config{
			Mode: livelock.ModePolled, Quota: 5,
			UserProcess:         true,
			CycleLimitThreshold: th,
		}
		res, err := livelock.RunTrial(cfg, floodRate, livelock.Warmup, livelock.Measure)
		if err != nil {
			log.Fatal(err)
		}
		label := "none (starved)"
		if th > 0 {
			label = fmt.Sprintf("%.0f %%", th*100)
		}
		fmt.Printf("%-24s %11.1f%% %14.0f\n", label, res.UserCPUFrac*100, res.OutputRate)
	}

	idle, err := livelock.RunTrial(livelock.Config{
		Mode: livelock.ModePolled, Quota: 5, UserProcess: true, CycleLimitThreshold: 0.5,
	}, 0, livelock.Warmup, livelock.Measure)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbaseline with no input load: user gets %.1f%% (system overhead ≈6%%, §7)\n",
		idle.UserCPUFrac*100)
}
