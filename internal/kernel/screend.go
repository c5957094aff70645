package kernel

import (
	"livelock/internal/core"
	"livelock/internal/cpu"
	"livelock/internal/metrics"
	"livelock/internal/netstack"
	"livelock/internal/prov"
	"livelock/internal/sim"
	"livelock/internal/stats"
)

// screendProc models the screend firewall process of §6.2: a user-mode
// program, scheduled at ordinary process priority, that reads one packet
// per system call from a bounded kernel queue, evaluates its filter
// rules, and re-injects accepted packets into the IP output path. The
// experiments configure it to accept all packets; the rule evaluation is
// still performed for real so its cost scales with the rule count.
type screendProc struct {
	r    *Router
	task *cpu.Task
	fb   *core.Feedback // the screend queue's feedback; nil without it

	rules     []screendRule
	scheduled bool
	hung      bool
	// run, claim, filter and send are loop, claimHead, filterHead and
	// sendHead bound once, so the per-packet items allocate nothing.
	run, claim, filter, send func()
	// claimed is the packet the claim-first item dequeued for the body
	// after it (SMP only; see loop); sending is the accepted packet the
	// body hands to the send syscall's item. hold and cost are the claim's
	// and the body's costs; busy marks a body outstanding.
	claimed, sending *netstack.Packet
	hold, cost       sim.Duration
	busy             bool

	// Accepted/Rejected count filter verdicts.
	Accepted *stats.Counter
	Rejected *stats.Counter
}

// screendRule is one access-control entry: packets matching the
// (prefix, port) pair are given the rule's verdict.
type screendRule struct {
	prefix netstack.Addr
	bits   int
	port   uint16 // 0 matches any port
	allow  bool
}

func newScreendProc(r *Router) *screendProc {
	s := &screendProc{
		r:        r,
		Accepted: stats.NewCounter("screend.accepted"),
		Rejected: stats.NewCounter("screend.rejected"),
	}
	if r.polled != nil {
		s.fb = r.polled.feedback
	}
	// Ordinary user-process priority: above the compute-bound spinner,
	// below kernel threads — and, in the unmodified kernel, below every
	// interrupt, which is the whole problem.
	s.task = r.CPU.NewTask("screend", cpu.IPLThread, 5, cpu.ClassUser)
	s.task.SetCenter(prov.CenterScreend)
	s.run = s.loop
	s.claim = s.claimHead
	s.filter = s.filterHead
	s.send = s.sendHead

	// Build the configured number of no-op deny rules followed by a
	// final allow-all, so every packet traverses the whole list (the
	// paper's trials "configured screend to accept all packets").
	n := r.Cfg.ScreendRules
	if n <= 0 {
		n = 1
	}
	for i := 0; i < n-1; i++ {
		s.rules = append(s.rules, screendRule{
			prefix: netstack.AddrFrom(192, 0, byte(i>>8), byte(i)),
			bits:   32,
			allow:  false,
		})
	}
	s.rules = append(s.rules, screendRule{bits: 0, allow: true})
	return s
}

// registerScreendMetrics registers the screening process's verdict
// counters, or constant-zero columns when screend is not configured.
func (r *Router) registerScreendMetrics(reg *metrics.Registry) {
	var accepted, rejected *stats.Counter
	if r.screend != nil {
		accepted, rejected = r.screend.Accepted, r.screend.Rejected
	}
	reg.Counter("screend.accepted", accepted)
	reg.Counter("screend.rejected", rejected)
}

// submit hands a packet from the IP layer to the screening queue. Called
// from kernel context (softint or polling thread); the enqueue cost is
// part of the caller's per-packet work. Watermark callbacks on the queue
// drive feedback in the modified kernel. On SMP the caller holds
// netLock (screendq shares the net lock with the output path).
//
//lkvet:requires netLock
func (s *screendProc) submit(p *netstack.Packet) {
	s.r.ld.Check(s.r.screendq)
	if !s.r.screendq.Enqueue(p) {
		s.r.drop(p, prov.ReasonScreendQFull)
	}
	// The modified kernel re-asserts feedback, full queue or not, in
	// case a timeout re-enabled input above the high watermark.
	s.fb.Pressure()
	s.wakeup()
}

// HangScreend simulates a wedged screening process (§6.6.1's failure
// case: "in case the screend program is hung"): it stops consuming its
// queue until ResumeScreend. No-op without screend.
func (r *Router) HangScreend() {
	if r.screend != nil {
		r.screend.hung = true
	}
}

// ResumeScreend un-wedges the screening process.
func (r *Router) ResumeScreend() {
	if r.screend == nil {
		return
	}
	r.screend.hung = false
	//lkvet:allow lockguard racy emptiness peek from the fault plane; a stale result only costs one wakeup
	if !r.screendq.Empty() {
		r.screend.wakeup()
	}
}

// wakeup makes the process runnable if it is sleeping in select().
func (s *screendProc) wakeup() {
	if s.scheduled || s.hung {
		return
	}
	s.scheduled = true
	s.task.Post(s.r.Cfg.Costs.ScreendWakeup, s.run)
}

// loop processes one packet per iteration: recv syscall, filter
// evaluation, and (if accepted) the send syscall whose kernel half runs
// ip_output and starts transmission. On SMP the shared-state touches
// run under r.netLock — the screendq dequeue (producers on other cores
// enqueue under the same lock) and the re-injection into the shared
// output path — with the lock holds carved out of the syscall costs, so
// per-packet totals match the uniprocessor exactly.
func (s *screendProc) loop() {
	r := s.r
	//lkvet:allow lockguard racy emptiness peek; a stale result only costs one idle reschedule round
	if s.hung || r.screendq.Empty() {
		s.scheduled = false
		return
	}
	if s.busy {
		panic("kernel: screend iteration posted while another is outstanding")
	}
	s.busy = true
	c := &r.Cfg.Costs
	s.cost = c.ScreendRecvPerPkt + c.ScreendFilterPerPkt +
		sim.Duration(len(s.rules))*c.ScreendRuleCost
	if r.netLock != nil {
		// Claim first: the body runs unlocked, so on SMP the recv
		// syscall's dequeue is a netLock critical section ahead of it,
		// its hold carved out of the recv cost.
		s.hold = min(c.LockOp, s.cost)
		s.cost -= s.hold
		s.task.PostLocked(r.netLock, s.hold, prov.CenterScreend, s.claim)
	}
	s.task.Post(s.cost, s.filter)
}

// claimHead is the SMP claim-first item: the recv syscall's dequeue.
//
//lkvet:requires netLock
func (s *screendProc) claimHead() {
	r := s.r
	if s.claimed != nil {
		panic("kernel: screend claim while the previous claimed packet is still in hand")
	}
	r.ld.Check(r.screendq)
	s.claimed = r.screendq.Dequeue()
	if s.claimed != nil {
		r.invest(s.claimed, prov.CenterScreend, s.hold)
	}
}

// filterHead is the end of the body: the recv syscall returns and the
// rules are evaluated. An accepted packet goes on to the send syscall.
func (s *screendProc) filterHead() {
	s.busy = false
	p := s.take()
	if p == nil {
		s.scheduled = false
		return
	}
	s.fb.Progress()
	s.r.invest(p, prov.CenterScreend, s.cost)
	if s.verdict(p) {
		s.Accepted.Inc()
		s.r.observe(p, prov.StageScreendAccept, prov.ReasonNone)
		// The send syscall re-injects the packet; its kernel half
		// (ip_output, ifqueue enqueue, transmit start) is charged
		// here, in process context, as in the real system.
		if s.sending != nil {
			panic("kernel: screend send posted while the previous packet is still in hand")
		}
		s.sending = p
		c := &s.r.Cfg.Costs
		s.task.PostLockedTail(s.r.netLock, c.ScreendSendPerPkt, c.LockOp, prov.CenterScreend, s.send)
		return
	}
	s.r.drop(p, prov.ReasonScreendReject)
	s.loop()
}

// sendHead is the end of the send syscall: the accepted packet enters
// the shared output path.
//
//lkvet:requires netLock
func (s *screendProc) sendHead() {
	p := s.sending
	s.sending = nil
	s.r.invest(p, prov.CenterScreend, s.r.Cfg.Costs.ScreendSendPerPkt)
	s.r.forwardFrame(p)
	s.loop()
}

// take returns the packet for this iteration's body: the one the
// claim-first item dequeued on SMP or, with no netLock (one CPU), the
// queue head, dequeued now.
func (s *screendProc) take() *netstack.Packet {
	if s.r.netLock == nil {
		return s.r.screendq.Dequeue()
	}
	p := s.claimed
	s.claimed = nil
	return p
}

// verdict evaluates the rule list against the packet's real headers.
func (s *screendProc) verdict(p *netstack.Packet) bool {
	_, ip, udp, _, err := netstack.ParseUDPFrame(p.Data)
	if err != nil {
		return false
	}
	for _, rule := range s.rules {
		if !netstack.MatchPrefix(rule.prefix, rule.bits, ip.Dst) {
			continue
		}
		if rule.port != 0 && rule.port != udp.DstPort {
			continue
		}
		return rule.allow
	}
	return false
}
