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

// reorderSlot is one frame's place in a hold. A hold allocates its
// slots once, at its capacity, and a frame keeps its slot while held,
// because the engine's queue points at the slot's flush timer. Hold
// order is a list threaded through the slots, so releasing a frame
// moves no other.
type reorderSlot struct {
	p     *netstack.Packet // the held frame; nil when the slot is free
	left  int              // frames still to pass before release
	next  int              // the next slot in hold order
	flush sim.Timer        // flush-timeout backstop, bound to (hold, p)
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
	swap  bool          // an expired batch drains in reverse (ReorderSwap)
	slots []reorderSlot // fixed at attach; its length bounds the frames held
	head  int           // the oldest held frame's slot, when n > 0
	tail  int           // the newest held frame's slot, when n > 0
	n     int           // frames held
}

// offer disposes of a frame reaching the wire's main line: it is held
// out of order when hold is set and a slot is free, and otherwise
// delivered, aging the frames already held. offer reports whether it
// held the frame. The plane's tap and the adversary's both call it, each
// deciding hold its own way.
func (h *reorderHold) offer(p *netstack.Packet, hold bool) bool {
	if hold && h.n < len(h.slots) {
		h.hold(p)
		return true
	}
	h.w.Deliver(p)
	h.pass()
	return false
}

// hold takes ownership of p. The flush timer guarantees a tail frame
// with no successors is still delivered. The caller keeps the hold
// below its capacity.
func (h *reorderHold) hold(p *netstack.Packet) {
	i := 0
	for h.slots[i].p != nil {
		i++
	}
	s := &h.slots[i]
	s.p, s.left = p, h.span
	s.flush.Init(reorderFlushFire, h, p)
	h.eng.ArmAfter(&s.flush, h.flush)
	if h.n == 0 {
		h.head = i
	} else {
		h.slots[h.tail].next = i
	}
	h.tail = i
	h.n++
}

// pass ages every held frame by the one that just went by and delivers
// the expired prefix. Entries are inserted with the same span and age
// together, so expired entries always form a prefix in hold order.
func (h *reorderHold) pass() {
	expired := 0
	for i, k := h.head, 0; k < h.n; i, k = h.slots[i].next, k+1 {
		h.slots[i].left--
		if h.slots[i].left <= 0 && expired == k {
			expired++
		}
	}
	h.release(h.head, expired)
	for ; expired > 0; expired-- {
		h.head = h.slots[h.head].next
		h.n--
	}
}

// release delivers the n frames held from slot i on, in hold order or,
// under ReorderSwap, newest first, cancelling each flush backstop.
// Delivery bypasses the tap (a released frame must not re-enter the
// injectors or age its fellow holds).
func (h *reorderHold) release(i, n int) {
	if n == 0 {
		return
	}
	s := &h.slots[i]
	if h.swap {
		h.release(s.next, n-1)
	}
	h.eng.Disarm(&s.flush)
	h.w.Deliver(s.p)
	s.p = nil
	if !h.swap {
		h.release(s.next, n-1)
	}
}

// reorderFlushFire is the hold-timeout callback (sim.Callback shape): a
// held frame ran out of successors, deliver it now. Frames released by
// aging cancel their backstop, so a firing timer always finds its
// frame.
func reorderFlushFire(a, b any) {
	h, p := a.(*reorderHold), b.(*netstack.Packet)
	for i, prev, k := h.head, -1, 0; k < h.n; i, prev, k = h.slots[i].next, i, k+1 {
		s := &h.slots[i]
		if s.p != p {
			continue
		}
		if k == 0 {
			h.head = s.next
		} else {
			h.slots[prev].next = s.next
		}
		if k == h.n-1 {
			h.tail = prev
		}
		h.n--
		s.p = nil
		h.w.Deliver(p)
		return
	}
}
