package core

import (
	"livelock/internal/queue"
	"livelock/internal/sim"
	"livelock/internal/stats"
)

// Feedback implements queue-state feedback (§6.6.1): when a downstream
// queue (e.g. the screend input queue) reaches its high watermark, input
// processing is inhibited so the CPU drains the queue instead of
// wastefully filling it; input is re-enabled when the queue falls to its
// low watermark, or after a timeout in case the consumer is hung ("we
// also set a timeout, arbitrarily chosen as one clock tick, or about
// 1 msec ... so that packets for other consumers are not dropped
// indefinitely").
//
// A Feedback is bound to its queue at construction and inhibits input
// through a Gate under its source name. Its producer-side and
// consumer-side calls (Pressure, Progress) are nil-safe, so a queue
// without feedback passes its nil controller.
type Feedback struct {
	eng     *sim.Engine
	gate    *Gate
	source  string
	timeout sim.Duration
	timer   sim.Timer
	q       *queue.Queue

	// Inhibits counts transitions into the inhibited state; Timeouts
	// counts re-enables forced by the timeout rather than the low
	// watermark.
	Inhibits *stats.Counter
	Timeouts *stats.Counter
}

// NewFeedback returns a controller operating on gate under the given
// source name, bound to q: it sets q's watermarks to high and low and
// installs QueueHigh and QueueLow as q's watermark callbacks. A nil q
// leaves the controller unbound; its owner then calls QueueHigh and
// QueueLow itself and must not call Pressure. timeout <= 0 disables the
// hang-recovery timer.
func NewFeedback(eng *sim.Engine, gate *Gate, source string, timeout sim.Duration,
	q *queue.Queue, high, low int,
) *Feedback {
	f := &Feedback{
		eng: eng, gate: gate, source: source, timeout: timeout, q: q,
		Inhibits: stats.NewCounter(source + ".inhibits"),
		Timeouts: stats.NewCounter(source + ".timeouts"),
	}
	f.timer.Init(feedbackTimeout, f, nil)
	if q != nil {
		q.SetWatermarks(high, low)
		q.OnHigh = f.QueueHigh
		q.OnLow = f.QueueLow
	}
	return f
}

// QueueHigh handles the queue reaching its high watermark.
func (f *Feedback) QueueHigh() {
	if f.gate.Holds(f.source) {
		return
	}
	f.Inhibits.Inc()
	f.gate.Inhibit(f.source)
	if f.timeout > 0 {
		f.eng.ArmAfter(&f.timer, f.timeout)
	}
}

// QueueLow handles the queue draining to its low watermark.
func (f *Feedback) QueueLow() {
	f.eng.Disarm(&f.timer)
	f.gate.Release(f.source)
}

// Pressure re-asserts the inhibition while the bound queue sits at or
// above its high watermark. The queue's producer calls it: after a
// timeout released the gate with the queue still full, the watermark
// callback will not re-fire (hysteresis), so only the producer can
// re-raise the inhibition. A nil controller does nothing.
func (f *Feedback) Pressure() {
	if f != nil && f.q.AboveHigh() {
		f.QueueHigh()
	}
}

// Progress notes that the protected queue's consumer handled a packet.
// While input is inhibited, progress re-arms the hang-recovery timer:
// the timeout exists to catch a *hung* consumer ("in case the screend
// program is hung"), so a live consumer should never trip it even when a
// full drain takes longer than the timeout. A nil controller does
// nothing.
func (f *Feedback) Progress() {
	if f != nil && f.timer.Armed() {
		f.eng.Disarm(&f.timer)
		f.eng.ArmAfter(&f.timer, f.timeout)
	}
}

// feedbackTimeout is the hang-recovery callback (sim.Callback shape):
// re-arming on every consumer step must not allocate, since a busy
// inhibited drain re-arms once per packet.
func feedbackTimeout(a, _ any) { a.(*Feedback).onTimeout() }

func (f *Feedback) onTimeout() {
	if f.gate.Holds(f.source) {
		f.Timeouts.Inc()
		f.gate.Release(f.source)
	}
}

// Inhibited reports whether this controller currently inhibits input.
func (f *Feedback) Inhibited() bool { return f.gate.Holds(f.source) }
