// Tcpbulk: the experiment §7.1 wanted but could not run — "The changes
// we made to the kernel potentially affect the performance of
// end-system transport protocols, such as TCP ... we cannot yet measure
// this effect." Here a Tahoe-style TCP bulk sender (slow start,
// congestion avoidance, fast retransmit, RTO backoff — all implemented
// over real headers and checksums) streams into a receiver on the
// router host while a UDP flood arrives on a second interface.
//
// On the interrupt-driven kernel the flood starves TCP completely: data
// segments die at interrupt level and the ACK clock stops. The polled
// kernel's round-robin across interfaces keeps the transfer at full
// wire-limited goodput regardless of the flood.
package main

import (
	"fmt"
	"log"

	"livelock"
)

func main() {
	fmt.Println("TCP bulk transfer into the router host vs background UDP flood (§7.1):")
	fmt.Printf("%12s %22s %22s\n", "flood pps", "unmodified", "polled (quota 5)")
	opts := livelock.Options{}
	rates := []float64{0, 2000, 4000, 8000, 12000}
	unmod, err := livelock.TCPUnderFlood(livelock.ModeUnmodified, rates, opts)
	if err != nil {
		log.Fatal(err)
	}
	polled, err := livelock.TCPUnderFlood(livelock.ModePolled, rates, opts)
	if err != nil {
		log.Fatal(err)
	}
	for i, rate := range rates {
		fmt.Printf("%12.0f %15.0f kB/s %15.0f kB/s\n",
			rate, unmod[i].GoodputBps/1000, polled[i].GoodputBps/1000)
	}
	fmt.Println("\nThe ACK clock is the victim: once receive livelock sets in, segments")
	fmt.Println("never reach the TCP layer, no ACKs flow, and the sender sits in")
	fmt.Println("exponential-backoff timeouts. Round-robin polling keeps both the data")
	fmt.Println("and the ACK path moving (§5.2, §7.1).")
}
