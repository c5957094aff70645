// Rpcserver: the paper's end-system motivation (§2) — "servers for
// protocols such as NFS are commonly built from UNIX systems" and are
// "potentially exposed to heavy, non-flow-controlled loads". An
// RPC-style UDP server runs *on* the router host; clients flood it with
// requests at increasing rates. Delivered throughput here means
// request/response completions — "the rate at which the system delivers
// packets to their ultimate consumers" (§3).
//
// The interrupt-driven kernel serves nothing once the request rate
// saturates interrupt-level processing: requests die on kernel queues
// before the server process ever runs. Plain polling is not enough —
// the polling thread outranks the server process exactly as interrupts
// did. The §7 cycle limiter, or §6.6.1's queue-state feedback applied
// to the server's socket buffer, fixes it.
package main

import (
	"fmt"
	"log"

	"livelock"
)

func serve(mode livelock.Mode, threshold float64, sockFB bool, rate float64) (served, replied float64) {
	cfg := livelock.Config{Mode: mode, Quota: 5, CycleLimitThreshold: threshold}
	r := livelock.NewRouter(livelock.NewEngine(), cfg)
	app := r.StartApp(livelock.AppConfig{
		Port:        2049, // the NFS port
		RecvCost:    80 * livelock.Microsecond,
		ProcessCost: 120 * livelock.Microsecond, // cache hit / attr lookup
		ReplyBytes:  128,
		ReplyCost:   80 * livelock.Microsecond,
		Feedback:    sockFB,
	})
	r.AttachGeneratorTo(0, livelock.RouterIP(0), 2049,
		livelock.ConstantRate{Rate: rate, JitterFrac: 0.05}, 0).Start()
	r.Measure(500*livelock.Millisecond, 0) // the warmup alone: the window starts here
	s0, r0 := app.Served.Value(), app.Replied.Value()
	r.Measure(0, 2*livelock.Second)
	if _, err := r.Finish(0); err != nil {
		log.Fatal(err) // the run failed its conservation or cycle audit
	}
	return float64(app.Served.Value()-s0) / 2, float64(app.Replied.Value()-r0) / 2
}

func main() {
	fmt.Println("RPC (NFS-style) server on the router host; requests/sec served:")
	fmt.Printf("%8s %18s %18s %20s %20s\n",
		"offered", "interrupt-driven", "polled (quota 5)", "polled+cycle 50%", "polled+sock feedback")
	for _, rate := range []float64{1000, 2000, 3000, 5000, 8000, 12000} {
		u, _ := serve(livelock.ModeUnmodified, 0, false, rate)
		p, _ := serve(livelock.ModePolled, 0, false, rate)
		c, _ := serve(livelock.ModePolled, 0.5, false, rate)
		f, _ := serve(livelock.ModePolled, 0, true, rate)
		fmt.Printf("%8.0f %18.0f %18.0f %20.0f %20.0f\n", rate, u, p, c, f)
	}
	fmt.Println("\nThe interrupt-driven server livelocks: kernel receive work starves the")
	fmt.Println("server process itself (§2/§4.2). Polling alone is not enough — the poll")
	fmt.Println("thread outranks the server just like interrupts did. The §7 cycle limiter")
	fmt.Println("or §6.6.1 queue feedback applied to the socket buffer fixes it.")
}
