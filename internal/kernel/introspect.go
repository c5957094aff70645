package kernel

import (
	"livelock/internal/core"
	"livelock/internal/nic"
	"livelock/internal/queue"
)

// PolledInternals exposes the modified kernel's live control objects —
// the input gate, the polling thread, and the two inhibition sources —
// for invariant checking by the exploration plane (internal/explore).
// These are the real objects, not copies: callers must treat them as
// read-only and must only touch them from engine events.
type PolledInternals struct {
	Gate     *core.Gate
	Poller   *core.Poller
	Feedback *core.Feedback     // nil unless feedback is configured
	Limiter  *core.CycleLimiter // nil unless cycle limiting is configured
	Clocked  bool
}

// PolledInternals returns the polled path's control objects, or nil for
// interrupt-driven modes.
func (r *Router) PolledInternals() *PolledInternals {
	if r.polled == nil {
		return nil
	}
	return &PolledInternals{
		Gate:     r.polled.gate,
		Poller:   r.polled.pollers[0],
		Feedback: r.polled.feedback,
		Limiter:  r.polled.limiter,
		Clocked:  r.polled.clocked,
	}
}

// ScreendState reports the screening process's scheduler-visible state:
// whether it is hung (fault-injected pause) and whether its run loop is
// scheduled. Both false when no screend is configured.
func (r *Router) ScreendState() (hung, scheduled bool) {
	if r.screend == nil {
		return false, false
	}
	return r.screend.hung, r.screend.scheduled
}

// VisitPorts calls fn for every attached interface in registration
// order (output port first, then inputs), with its routing index, NIC,
// and output ifqueue. Exploration harnesses use this to fingerprint
// per-port state; fn must not mutate anything. An observer API: runs
// between engine steps, never concurrently with the kernel.
//
//lkvet:requires boot
func (r *Router) VisitPorts(fn func(idx int, n *nic.NIC, outq *queue.Queue)) {
	for _, p := range r.ports {
		fn(p.idx, p.nic, p.outq)
	}
}
