// Monitor: the paper's second motivating application (§2) — "network
// managers, developers, and researchers commonly use UNIX systems, with
// their network interfaces in promiscuous mode, to monitor traffic on a
// LAN". A BPF-style tap copies every received packet's metadata into a
// bounded capture buffer drained by a user-mode monitoring process.
//
// Under a flood the monitor is just another starved user process: its
// buffer overflows and the capture is full of holes. §6.6.1 suggests
// applying queue-state feedback to packet-filter queues but warns the
// policy "would be more complex" — because inhibiting input to protect
// the monitor also throttles forwarding. This example shows both sides
// of that trade.
package main

import (
	"fmt"
	"log"

	"livelock"
)

func run(feedback bool, rate float64) (lossPct, fwd float64) {
	r := livelock.NewRouter(livelock.NewEngine(), livelock.Config{Mode: livelock.ModePolled, Quota: 5})
	mon := r.StartMonitor(livelock.MonitorConfig{
		ProcessCost: 50 * livelock.Microsecond,
		Feedback:    feedback,
	})
	r.AttachGenerator(0, livelock.ConstantRate{Rate: rate, JitterFrac: 0.05}, 0).Start()
	res := r.Measure(0, 2*livelock.Second)
	if _, err := r.Finish(0); err != nil {
		log.Fatal(err) // the run failed its conservation or cycle audit
	}
	return mon.LossRate() * 100, res.OutputRate
}

func main() {
	fmt.Println("promiscuous monitor on the router, flood on the input Ethernet:")
	fmt.Printf("%8s | %14s %14s | %14s %14s\n",
		"", "no feedback", "", "filter-queue feedback", "")
	fmt.Printf("%8s | %14s %14s | %14s %14s\n",
		"offered", "capture loss", "forwarded", "capture loss", "forwarded")
	for _, rate := range []float64{2000, 5000, 8000, 12000} {
		l0, f0 := run(false, rate)
		l1, f1 := run(true, rate)
		fmt.Printf("%8.0f | %13.1f%% %14.0f | %13.1f%% %14.0f\n", rate, l0, f0, l1, f1)
	}
	fmt.Println("\nWithout feedback the monitor starves (lossy capture) while forwarding")
	fmt.Println("runs at full speed; with feedback the capture is complete but input")
	fmt.Println("inhibition slows forwarding — the policy entanglement §6.6.1 warns about.")
}
