package fault

import (
	"livelock/internal/netstack"
	"livelock/internal/nic"
	"livelock/internal/sim"
)

// Adversary arms the plane's fault choice points — lost receive
// interrupts, receive-stall windows, screend pauses — as enumerable
// decisions. Where Plane draws each decision from a seeded RNG stream,
// Adversary refers it to Decide, so a model checker
// (internal/explore) can systematically branch on every outcome and
// bound each injector with an explicit budget. Each probe is an
// ordinary engine event at a fixed instant; the decision is made when
// the probe fires, which makes the adversary itself subject to the same
// schedule enumeration as the system under test.
type Adversary struct {
	// Decide picks an alternative in [0, n) for the named choice point.
	// It must be deterministic given the exploration prefix; the zero
	// alternative always means "inject nothing".
	Decide func(kind string, n int) int
}

// intrLossPoint bounds the lost-interrupt choice point on one NIC.
type intrLossPoint struct {
	adv    *Adversary
	kind   string
	budget int
}

// AttachRxIntrLoss arms the lost-receive-interrupt choice point on n:
// each of the first budget interrupt assertions becomes a two-way
// choice (deliver or lose); later assertions always deliver. The budget
// counts consultations, not losses, so the number of choice sites the
// injector contributes is bounded regardless of what Decide returns.
func (a *Adversary) AttachRxIntrLoss(n *nic.NIC, budget int) {
	pt := &intrLossPoint{adv: a, kind: "intr-loss:" + n.Name(), budget: budget}
	n.SetRxIntrLoss(func() bool {
		if pt.budget <= 0 {
			return false
		}
		pt.budget--
		return pt.adv.Decide(pt.kind, 2) == 1
	})
}

// stallWindow is one receive-stall probe: at its instant the adversary
// chooses whether to stall the NIC for dur.
type stallWindow struct {
	adv *Adversary
	eng *sim.Engine
	nic *nic.NIC
	dur sim.Duration
}

// ScheduleStall arms a receive-stall choice point: at instant at, the
// adversary chooses whether to stall n's receive side (losing arriving
// frames into the StallDrops bucket) for dur. The window always closes;
// a stall delays and discards input, it never wedges the device.
func (a *Adversary) ScheduleStall(eng *sim.Engine, at sim.Time, n *nic.NIC, dur sim.Duration) {
	if dur <= 0 {
		panic("fault: non-positive stall duration")
	}
	eng.AtCall(at, stallProbe, &stallWindow{adv: a, eng: eng, nic: n, dur: dur}, nil)
}

// stallProbe is the stall decision event (sim.Callback shape).
func stallProbe(x, _ any) {
	w := x.(*stallWindow)
	if w.adv.Decide("stall:"+w.nic.Name(), 2) != 1 {
		return
	}
	w.nic.SetRxStalled(true)
	w.eng.AtCall(w.eng.Now().Add(w.dur), stallEnd, w, nil)
}

// stallEnd closes the stall window (sim.Callback shape).
func stallEnd(x, _ any) { x.(*stallWindow).nic.SetRxStalled(false) }

// pauseWindow is one screend-pause probe.
type pauseWindow struct {
	adv          *Adversary
	eng          *sim.Engine
	hang, resume func()
	dur          sim.Duration
}

// SchedulePause arms a consumer-pause choice point: at instant at, the
// adversary chooses whether to call hang (e.g. Router.HangScreend) and,
// dur later, resume. The pause always ends, mirroring Plane's bounded
// pause windows: the §6.6.1 timeout guards against a hung consumer, but
// a scenario must reach quiescence for its end-state invariants.
func (a *Adversary) SchedulePause(eng *sim.Engine, at sim.Time, dur sim.Duration, hang, resume func()) {
	if hang == nil || resume == nil {
		panic("fault: nil pause hooks")
	}
	if dur <= 0 {
		panic("fault: non-positive pause duration")
	}
	eng.AtCall(at, pauseProbe, &pauseWindow{adv: a, eng: eng, hang: hang, resume: resume, dur: dur}, nil)
}

// pauseProbe is the pause decision event (sim.Callback shape).
func pauseProbe(x, _ any) {
	w := x.(*pauseWindow)
	if w.adv.Decide("screend-pause", 2) != 1 {
		return
	}
	w.hang()
	w.eng.AtCall(w.eng.Now().Add(w.dur), pauseEnd, w, nil)
}

// pauseEnd closes the pause window (sim.Callback shape).
func pauseEnd(x, _ any) { x.(*pauseWindow).resume() }

// WireReorder is the deterministic twin of the plane's wire-layer
// reorder injector: each of the first budget frames finishing
// propagation on the wire becomes a two-way choice — deliver in order,
// or hold until span later frames pass (bounded displacement) or the
// flush timeout fires, whichever comes first. Like the stochastic
// injector it displaces frames but never loses one, so every branch
// stays conservation-clean; the budget counts consultations, bounding
// the choice sites the point contributes regardless of what Decide
// returns.
type WireReorder struct {
	reorderHold
	adv      *Adversary
	kind     string
	budget   int
	injected int
}

// AttachWireReorder arms the reorder choice point on w. name labels the
// wire in the choice-site kind ("reorder:<name>").
func (a *Adversary) AttachWireReorder(eng *sim.Engine, w *nic.Wire, name string,
	budget, span int, flush sim.Duration,
) *WireReorder {
	if span <= 0 {
		panic("fault: non-positive reorder span")
	}
	if flush <= 0 {
		panic("fault: non-positive reorder flush")
	}
	pt := &WireReorder{
		reorderHold: reorderHold{
			eng: eng, w: w, span: span, flush: flush,
			slots: make([]reorderSlot, budget),
		},
		adv: a, kind: "reorder:" + name, budget: budget,
	}
	w.SetTap(pt.tap)
	return pt
}

// tap owns every frame finishing propagation on the wire and disposes
// of it exactly once: held out of order, or delivered (aging the holds).
func (pt *WireReorder) tap(p *netstack.Packet) {
	if pt.budget > 0 {
		pt.budget--
		if pt.adv.Decide(pt.kind, 2) == 1 {
			pt.injected++
			pt.hold(p)
			return
		}
	}
	pt.w.Deliver(p)
	pt.pass()
}

// Injected reports how many holds the adversary chose (each one is a
// loss signal the transport may legitimately react to).
func (pt *WireReorder) Injected() int { return pt.injected }

// Budget reports the remaining choice consultations.
func (pt *WireReorder) Budget() int { return pt.budget }

// Held reports how many frames are currently held out of order.
func (pt *WireReorder) Held() int { return pt.n }

// VisitHeld walks the held frames in insertion order (explore
// fingerprinting: the hold set and each frame's remaining displacement
// are forward-relevant state).
func (pt *WireReorder) VisitHeld(f func(pid uint64, left int)) {
	for i, k := pt.head, 0; k < pt.n; i, k = pt.slots[i].next, k+1 {
		f(pt.slots[i].p.ID, pt.slots[i].left)
	}
}
