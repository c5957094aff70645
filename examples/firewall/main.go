// Firewall: the paper's motivating scenario (§2, §6) — a UNIX screening
// router running the user-mode screend filter must survive a packet
// flood, because "since firewalls typically use UNIX-based routers, they
// must be livelock-proof in order to prevent denial-of-service attacks."
//
// This example floods three firewall configurations and reports what
// survives: the unmodified kernel livelocks completely; polling alone
// does not help (the screend queue still starves); polling plus
// queue-state feedback keeps filtering at full capacity.
package main

import (
	"fmt"
	"log"

	"livelock"
)

func main() {
	const attackRate = 11000 // pkts/sec flood, e.g. a smurf-style attack

	configs := []struct {
		name string
		cfg  livelock.Config
	}{
		{"unmodified kernel", livelock.Config{
			Mode: livelock.ModeUnmodified, Screend: true, ScreendRules: 8}},
		{"polled, no feedback", livelock.Config{
			Mode: livelock.ModePolled, Quota: 10, Screend: true, ScreendRules: 8}},
		{"polled + queue feedback", livelock.Config{
			Mode: livelock.ModePolled, Quota: 10, Screend: true, ScreendRules: 8,
			Feedback: true}},
	}

	fmt.Printf("flooding a screend firewall at %d pkts/sec:\n\n", attackRate)
	for _, c := range configs {
		res, err := livelock.RunTrial(c.cfg, attackRate, livelock.Warmup, livelock.Measure)
		if err != nil {
			log.Fatal(err)
		}
		verdict := "LIVELOCKED — the firewall is off the air"
		if res.OutputRate > 1000 {
			verdict = "alive and filtering"
		}
		fmt.Printf("%-26s forwarded %5.0f pkts/s   %s\n", c.name, res.OutputRate, verdict)
		a := res.Accounting
		fmt.Printf("%-26s drops: ring=%d (cheap)  screend-queue=%d (wasted work)\n\n",
			"", a.RingDrops, a.ScreendDrops)
	}

	fmt.Println("With feedback, overload drops move to the interface ring, before any")
	fmt.Println("CPU has been invested — the key principle of §6.6.1.")
}
