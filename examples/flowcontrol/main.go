// Flowcontrol: §1's framing of the whole problem — traditional
// applications are flow-controlled, so they never livelock a server;
// datagram floods are not, so they do. The same RPC server on the same
// interrupt-driven kernel is driven two ways:
//
//   - an open-loop UDP flood ("multicast and broadcast protocols subject
//     innocent-bystander hosts to loads that do not interest them at
//     all"), which drives the server into livelock; and
//   - a closed-loop, windowed client (the "negative feedback loop to
//     control the sources" the paper says floods lack), which self-clocks
//     to the server's service rate and never collapses.
package main

import (
	"fmt"
	"log"

	"livelock"
)

// run drives r for two simulated seconds and audits the run.
func run(r *livelock.Router) {
	r.Measure(0, 2*livelock.Second)
	if _, err := r.Finish(0); err != nil {
		log.Fatal(err) // the run failed its conservation or cycle audit
	}
}

func main() {
	appCfg := livelock.AppConfig{
		Port:        2049,
		RecvCost:    80 * livelock.Microsecond,
		ProcessCost: 120 * livelock.Microsecond,
		ReplyBytes:  64,
		ReplyCost:   80 * livelock.Microsecond,
	}

	fmt.Println("the same server, interrupt-driven kernel, two kinds of source:")
	fmt.Printf("\n%-34s %14s %14s\n", "open-loop UDP flood", "offered", "served/sec")
	for _, rate := range []float64{1000, 3000, 6000, 12000} {
		r := livelock.NewRouter(livelock.NewEngine(), livelock.Config{Mode: livelock.ModeUnmodified})
		app := r.StartApp(appCfg)
		r.AttachGeneratorTo(0, livelock.RouterIP(0), 2049,
			livelock.ConstantRate{Rate: rate, JitterFrac: 0.05}, 0).Start()
		run(r)
		fmt.Printf("%-34s %14.0f %14.0f\n", "", rate, float64(app.Served.Value())/2)
	}

	fmt.Printf("\n%-34s %14s %14s %10s\n", "closed-loop windowed client", "window", "served/sec", "p50 RTT")
	for _, window := range []int{1, 4, 16, 64} {
		r := livelock.NewRouter(livelock.NewEngine(), livelock.Config{Mode: livelock.ModeUnmodified})
		app := r.StartApp(appCfg)
		client := r.AttachClient(0, livelock.ClientConfig{Port: 2049, Window: window})
		client.Start()
		run(r)
		fmt.Printf("%-34s %14d %14.0f %10v\n", "",
			window, float64(app.Served.Value())/2, client.RTT.Quantile(0.5))
	}

	fmt.Println("\nThe flood drives the unmodified kernel to zero; the windowed client")
	fmt.Println("saturates the server and stays there, whatever the window. Livelock is")
	fmt.Println("a property of non-flow-controlled load meeting interrupt priority (§1).")
}
