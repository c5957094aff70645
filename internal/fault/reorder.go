package fault

import (
	"livelock/internal/netstack"
	"livelock/internal/nic"
	"livelock/internal/sim"
)

// ReorderMode selects the wire-tap reordering model.
type ReorderMode int

const (
	// ReorderDisplace is bounded displacement: each selected frame is
	// held while ReorderSpan later frames pass it, then delivered —
	// held frames re-enter in their original relative order (FIFO).
	ReorderDisplace ReorderMode = iota
	// ReorderSwap is the multi-path model: selected frames take the
	// "slow path" and, when a hold expires, the slow-path batch drains
	// in reverse (LIFO), the way striping across parallel paths turns a
	// contiguous burst inside out.
	ReorderSwap
)

// String names the mode for flags and labels.
func (m ReorderMode) String() string {
	if m == ReorderSwap {
		return "swap"
	}
	return "displace"
}

// ParseReorderMode maps a flag string to a mode.
func ParseReorderMode(s string) (ReorderMode, bool) {
	switch s {
	case "", "displace":
		return ReorderDisplace, true
	case "swap":
		return ReorderSwap, true
	}
	return ReorderDisplace, false
}

// maxReorderHeld bounds the frames the plane's reorder injector may
// hold at once on one wire; a candidate arriving with the hold full is
// delivered in order instead (the RNG draw still happened, so the
// stream is unperturbed).
const maxReorderHeld = 16

type reorderEntry struct {
	p     *netstack.Packet
	left  int        // frames still to pass before release
	flush sim.Handle // flush-timeout backstop
}

// reorderHold is one wire's set of frames held out of order, the state
// shared by the plane's stochastic reorder injector and the adversary's
// WireReorder: each frame is held until span later frames pass the
// wire's main line or its flush backstop fires, whichever comes first.
// Entries age only when a frame passes the main line (dropped frames
// never arrive and delay-held frames pass elsewhere), so the
// displacement is measured in delivered frames, which is what a
// receiver observes.
type reorderHold struct {
	eng   *sim.Engine
	w     *nic.Wire
	span  int
	flush sim.Duration
	swap  bool // an expired batch drains in reverse (ReorderSwap)
	held  []reorderEntry
}

// hold takes ownership of p. The flush timer guarantees a tail frame
// with no successors is still delivered.
func (h *reorderHold) hold(p *netstack.Packet) {
	h.held = append(h.held, reorderEntry{
		p:     p,
		left:  h.span,
		flush: h.eng.AfterCall(h.flush, reorderFlushFire, h, p),
	})
}

// pass ages every held frame by the one that just went by and delivers
// the expired prefix. Entries are inserted with the same span and age
// together, so expired entries always form a prefix in insertion order.
func (h *reorderHold) pass() {
	if len(h.held) == 0 {
		return
	}
	for i := range h.held {
		h.held[i].left--
	}
	n := 0
	for n < len(h.held) && h.held[n].left <= 0 {
		n++
	}
	if n == 0 {
		return
	}
	if h.swap {
		for i := n - 1; i >= 0; i-- {
			h.release(i)
		}
	} else {
		for i := 0; i < n; i++ {
			h.release(i)
		}
	}
	rest := copy(h.held, h.held[n:])
	h.held = h.held[:rest]
}

// release cancels entry i's flush backstop and delivers its frame.
// Delivery bypasses the tap (a released frame must not re-enter the
// injectors or age its fellow holds).
func (h *reorderHold) release(i int) {
	h.eng.Cancel(h.held[i].flush)
	h.w.Deliver(h.held[i].p)
	h.held[i].p = nil
}

// reorderFlushFire is the hold-timeout callback (sim.Callback shape): a
// held frame ran out of successors, deliver it now. Frames released by
// aging cancel their backstop, so a firing timer always finds its
// frame.
func reorderFlushFire(a, b any) {
	h, p := a.(*reorderHold), b.(*netstack.Packet)
	for i := range h.held {
		if h.held[i].p == p {
			h.held = append(h.held[:i], h.held[i+1:]...)
			h.w.Deliver(p)
			return
		}
	}
}

// HeldReorder reports how many frames the wire-layer reorder injectors
// currently hold across attached wires (conservation accounting treats
// them as alive in flight).
func (pl *Plane) HeldReorder() int {
	total := 0
	for _, rs := range pl.reorders {
		total += len(rs.held)
	}
	return total
}
