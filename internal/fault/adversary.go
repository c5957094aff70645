package fault

import (
	"livelock/internal/netstack"
	"livelock/internal/nic"
	"livelock/internal/sim"
)

// Adversary arms the plane's fault choice points — lost receive
// interrupts, wire reordering, receive-stall windows, screend pauses —
// as enumerable decisions. Where Plane draws each decision from a
// seeded RNG stream, Adversary refers it to Decide through a budgeted
// choice point, so a model checker (internal/explore) can
// systematically branch on every outcome and bound each injector with
// an explicit budget. The mechanisms the choices steer are the plane's
// own: its fault windows and its reorder hold. Each probe is an
// ordinary engine event at a fixed instant; the decision is made when
// the probe fires, which makes the adversary itself subject to the same
// schedule enumeration as the system under test.
type Adversary struct {
	// Decide picks an alternative in [0, n) for the named choice point.
	// It must be deterministic given the exploration prefix; the zero
	// alternative always means "inject nothing".
	Decide func(kind string, n int) int
}

// choice is one budgeted choice point: each of its first budget
// consultations is a two-way decision (inject or not), and later ones
// never inject. The budget counts consultations, not injections, so the
// number of choice sites a point contributes is bounded regardless of
// what Decide returns. All four injectors consult one: interrupt loss
// and reorder per event, stall and pause once per probe.
type choice struct {
	adv    *Adversary
	kind   string
	budget int
}

// inject consults the choice point.
func (c *choice) inject() bool {
	if c.budget <= 0 {
		return false
	}
	c.budget--
	return c.adv.Decide(c.kind, 2) == 1
}

// AttachRxIntrLoss arms the lost-receive-interrupt choice point on n:
// each of the first budget interrupt assertions becomes a two-way
// choice (deliver or lose); later assertions always deliver.
func (a *Adversary) AttachRxIntrLoss(n *nic.NIC, budget int) {
	n.SetRxIntrLoss((&choice{adv: a, kind: "intr-loss:" + n.Name(), budget: budget}).inject)
}

// ScheduleStall arms a receive-stall choice point: at instant at, the
// adversary chooses whether to stall n's receive side (losing arriving
// frames into the StallDrops bucket) for dur. The window always closes;
// a stall delays and discards input, it never wedges the device.
func (a *Adversary) ScheduleStall(eng *sim.Engine, at sim.Time, n *nic.NIC, dur sim.Duration) {
	if dur <= 0 {
		panic("fault: non-positive stall duration")
	}
	a.probe(eng, at, "stall:"+n.Name(), dur, n.SetRxStalled)
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
	a.probe(eng, at, "screend-pause", dur, func(on bool) {
		if on {
			hang()
		} else {
			resume()
		}
	})
}

// probe schedules a one-shot fault window at instant at, opened only if
// its choice point, consulted then, injects.
func (a *Adversary) probe(eng *sim.Engine, at sim.Time, kind string, dur sim.Duration, set func(bool)) {
	eng.AtCall(at, windowOpen, &window{
		eng: eng, set: set, dur: dur, choice: &choice{adv: a, kind: kind, budget: 1},
	}, nil)
}

// WireReorder is the deterministic twin of the plane's wire-layer
// reorder injector: each of the first budget frames finishing
// propagation on the wire becomes a two-way choice — deliver in order,
// or hold until span later frames pass (bounded displacement) or the
// flush timeout fires, whichever comes first. It shares the stochastic
// injector's hold, so it too displaces frames but never loses one, and
// every branch stays conservation-clean.
type WireReorder struct {
	reorderHold
	choice
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
		choice: choice{adv: a, kind: "reorder:" + name, budget: budget},
	}
	w.SetTap(pt.tap)
	return pt
}

// tap owns every frame finishing propagation on the wire and offers it
// to the hold, which the choice point decides.
func (pt *WireReorder) tap(p *netstack.Packet) {
	if pt.offer(p, pt.inject()) {
		pt.injected++
	}
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
