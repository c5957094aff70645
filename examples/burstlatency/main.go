// Burstlatency: §4.3's latency pathology — in the interrupt-driven
// kernel the first packet of a burst "is not delivered to the user until
// link-level processing has been completed for all the packets in the
// burst", because link-level work runs at a higher IPL than everything
// after it. The polled kernel processes each packet to completion, so
// the first packet's latency is independent of burst length.
//
// For NFS-style request bursts this is the difference between the
// server's disk starting to seek immediately and sitting idle while the
// CPU shovels the rest of the burst off the wire.
package main

import (
	"fmt"
	"log"

	"livelock"
)

func main() {
	opts := livelock.Options{}
	fmt.Println("first-of-burst forwarding latency (wire-speed bursts, one per 50ms):")
	fmt.Printf("%8s %22s %22s\n", "burst", "interrupt-driven", "polled (quota 5)")
	for _, n := range []int{1, 4, 8, 16, 32} {
		u, err := livelock.BurstLatency(livelock.ModeUnmodified, n, opts)
		if err != nil {
			log.Fatal(err)
		}
		p, err := livelock.BurstLatency(livelock.ModePolled, n, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%8d %22v %22v\n", n, u.FirstPkt, p.FirstPkt)
	}
	fmt.Println("\nInterrupt-driven latency grows with burst length; polled stays flat (§4.3).")
}
