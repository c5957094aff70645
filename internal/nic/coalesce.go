package nic

import (
	"livelock/internal/sim"
)

// CoalescePolicy selects how a receive queue turns frame arrivals into
// interrupt assertions. The zero value is CoalesceImmediate, which is
// byte-identical to the historical NIC behavior: no holdoff timers are
// scheduled and no extra state changes occur, so every pre-coalescing
// schedule replays exactly.
type CoalescePolicy int

const (
	// CoalesceImmediate asserts the queue interrupt on the first frame
	// that arrives while the latch is clear — one assertion per service
	// cycle, the classic LANCE-era device.
	CoalesceImmediate CoalescePolicy = iota
	// CoalesceCount holds the assertion until CountThresh frames have
	// accumulated in the ring; TimerThresh bounds the holdoff so a
	// sub-threshold tail is still signaled.
	CoalesceCount
	// CoalesceTimer holds the assertion for TimerThresh after the first
	// unsignaled arrival regardless of how many frames accumulate; a
	// full ring asserts early as a hardware safety valve.
	CoalesceTimer
	// CoalesceAdaptive starts from CountThresh and adjusts the
	// effective packet-count threshold per queue, deterministic AIMD:
	// an assertion triggered by the count threshold raises it by one
	// (up to CountThresh), an assertion forced by the holdoff timer
	// halves it (down to one). Heavy arrival rates earn large batches;
	// light ones converge back toward immediate signaling.
	CoalesceAdaptive
)

// String names the policy for flags and labels.
func (p CoalescePolicy) String() string {
	switch p {
	case CoalesceImmediate:
		return "immediate"
	case CoalesceCount:
		return "count"
	case CoalesceTimer:
		return "timer"
	case CoalesceAdaptive:
		return "adaptive"
	}
	return "invalid"
}

// ParseCoalescePolicy maps a flag string to a policy.
func ParseCoalescePolicy(s string) (CoalescePolicy, bool) {
	switch s {
	case "", "immediate":
		return CoalesceImmediate, true
	case "count":
		return CoalesceCount, true
	case "timer":
		return CoalesceTimer, true
	case "adaptive":
		return CoalesceAdaptive, true
	}
	return CoalesceImmediate, false
}

// CoalesceConfig parameterizes interrupt coalescing. It applies per
// receive queue: every RSS queue runs its own holdoff timer and (for
// the adaptive policy) its own effective threshold.
type CoalesceConfig struct {
	Policy CoalescePolicy
	// CountThresh is the packet-count threshold (frames per assertion
	// target). Zero means DefaultCoalesceCount for the policies that
	// use it.
	CountThresh int
	// TimerThresh is the maximum holdoff after the first unsignaled
	// arrival. Zero means DefaultCoalesceTimer for the non-immediate
	// policies.
	TimerThresh sim.Duration
}

// Defaults for non-immediate coalescing policies with unset knobs.
const (
	DefaultCoalesceCount = 8
	DefaultCoalesceTimer = 1 * sim.Millisecond
)

// withDefaults resolves zero knobs; called once at NIC construction so
// the receive path never re-derives them.
func (c CoalesceConfig) withDefaults() CoalesceConfig {
	if c.Policy == CoalesceImmediate {
		return CoalesceConfig{}
	}
	if c.CountThresh <= 0 {
		c.CountThresh = DefaultCoalesceCount
	}
	if c.TimerThresh <= 0 {
		c.TimerThresh = DefaultCoalesceTimer
	}
	return c
}

// coalesceEval decides, for a non-immediate policy, whether the queue's
// state warrants asserting the interrupt now or arming the holdoff
// timer. It is the only caller of raiseRx outside the immediate path.
func (n *NIC) coalesceEval(rq *rxQueue) {
	if !n.rxEnabled || rq.pending || rq.count == 0 || rq.onIntr == nil {
		return
	}
	byCount := false
	switch n.coalesce.Policy {
	case CoalesceCount:
		byCount = rq.count >= n.coalesce.CountThresh
	case CoalesceAdaptive:
		byCount = rq.count >= rq.coalesceThresh
	}
	if byCount || rq.count >= n.cfg.RxRing {
		// A full ring always asserts: holding off past that point
		// converts coalescing into hardware drops.
		if n.coalesce.Policy == CoalesceAdaptive && byCount && rq.coalesceThresh < n.coalesce.CountThresh {
			rq.coalesceThresh++
		}
		n.CoalesceCountFires.Inc()
		n.raiseRx(rq)
		return
	}
	if !rq.coalesceTimer.Armed() {
		n.eng.ArmAfter(&rq.coalesceTimer, n.coalesce.TimerThresh)
	}
}

// nicCoalesceFire is the holdoff-timer callback (sim.Callback shape):
// the timer threshold expired with frames still unsignaled.
func nicCoalesceFire(a, b any) {
	n, rq := a.(*NIC), b.(*rxQueue)
	if !n.rxEnabled || rq.pending || rq.count == 0 || rq.onIntr == nil {
		// Raced with a drain, a disable, or an assertion from the count
		// threshold; the next arrival re-arms the holdoff.
		return
	}
	if n.coalesce.Policy == CoalesceAdaptive && rq.coalesceThresh > 1 {
		// The batch never filled: halve the target so light load gets
		// near-immediate latency again.
		rq.coalesceThresh /= 2
	}
	n.CoalesceTimerFires.Inc()
	n.raiseRx(rq)
}

// raiseRx asserts the queue interrupt, honoring the fault plane's
// lost-interrupt hook. Under a non-immediate policy a lost assertion
// re-arms the holdoff timer, so coalescing recovers by timer rather
// than waiting for another arrival.
func (n *NIC) raiseRx(rq *rxQueue) {
	if n.loseRxIntr != nil && n.loseRxIntr() {
		n.LostRxIntrs.Inc()
		if n.coalesce.Policy != CoalesceImmediate && !rq.coalesceTimer.Armed() {
			n.eng.ArmAfter(&rq.coalesceTimer, n.coalesce.TimerThresh)
		}
		return
	}
	n.eng.Disarm(&rq.coalesceTimer)
	rq.pending = true
	rq.onIntr()
}

// Coalesce returns the NIC's resolved coalescing configuration.
func (n *NIC) Coalesce() CoalesceConfig { return n.coalesce }

// RxQueueHoldoffPending reports whether queue q's coalescing holdoff
// timer is armed — frames are waiting unsignaled. Always false under
// the immediate policy.
//
//lkvet:requires rxipl
func (n *NIC) RxQueueHoldoffPending(q int) bool { return n.rxq[q].coalesceTimer.Armed() }

// RxQueueCoalesceThresh returns queue q's effective packet-count
// threshold (the adaptive policy moves it; other policies hold it at
// the configured value, or zero when coalescing is off).
//
//lkvet:requires rxipl
func (n *NIC) RxQueueCoalesceThresh(q int) int { return n.rxq[q].coalesceThresh }
