package kernel

import (
	"fmt"

	"livelock/internal/cpu"
	"livelock/internal/netstack"
	"livelock/internal/nic"
	"livelock/internal/prov"
	"livelock/internal/sim"
)

// unmodifiedPath implements the 4.2BSD-derived structure of figure 6-2:
//
//	receive interrupt (IPL device)   → ipintrq →
//	software interrupt (IPL softnet) → IP forwarding → output ifqueue →
//	transmit start / transmit-complete interrupt (IPL device)
//
// Every stage has strictly higher priority than the one after it, which
// is why, under input overload, packets are dropped *after* the system
// has already invested device-level work in them (§6.3) — the defining
// waste of receive livelock.
type unmodifiedPath struct {
	r *Router

	// netisrs holds one network software interrupt per core; netisrs[0]
	// runs on the boot CPU. Each is raised by the receive handlers
	// steered to its core, and on SMP all of them contend on the shared
	// ipintrq under r.ipqLock.
	netisrs []netisr
}

// netisr is one core's network software interrupt.
type netisr struct {
	u    *unmodifiedPath
	task *cpu.Task
	// run, claim and forward are loop, claimHead and forwardHead bound
	// once, so neither raising the softint nor posting its per-packet
	// items allocates.
	run, claim, forward func()
	sched               bool
	// claimed is the packet this netisr's claim-first item dequeued for
	// the forwarding item after it (SMP only; see loop). hold and cost
	// are the claim's and the forwarding item's costs, handed over from
	// loop; busy marks a forwarding item outstanding.
	claimed    *netstack.Packet
	hold, cost sim.Duration
	busy       bool
}

// rxQueue is one receive queue of an input NIC and the device-IPL
// handler steered to its core. loop and enqueue are rxLoop and
// enqueueIP bound once; pkt hands the packet an rxLoop item took to the
// enqueue at its end.
type rxQueue struct {
	u    *unmodifiedPath
	in   *nic.NIC
	q    int
	task *cpu.Task
	core int

	loop, enqueue func()
	pkt           *netstack.Packet
}

// txHandler is one port's device-IPL transmit-complete handler: loop
// and refill are txLoop and refillTx bound once.
type txHandler struct {
	u            *unmodifiedPath
	port         *netPort
	loop, refill func()
}

func newUnmodifiedPath(r *Router) *unmodifiedPath {
	u := &unmodifiedPath{r: r}
	n := r.Sys.N()
	u.netisrs = make([]netisr, n)
	for k := range u.netisrs {
		name := "netisr"
		if k > 0 {
			name = fmt.Sprintf("netisr.%d", k)
		}
		ni := &u.netisrs[k]
		ni.u = u
		ni.task = r.Sys.CPU(k).NewTask(name, cpu.IPLSoft, 0, cpu.ClassSoft)
		ni.task.SetCenter(prov.CenterIPInput)
		ni.run = ni.loop
		ni.claim = ni.claimHead
		ni.forward = ni.forwardHead
	}

	// One device-IPL task per (input NIC, rx queue) pair, placed
	// round-robin across cores by global queue index — the MSI-style
	// IRQ steering (everything lands on the boot CPU at N=1).
	gidx := 0
	for _, in := range r.Ins {
		for q := 0; q < in.RxQueues(); q++ {
			rq := &rxQueue{u: u, in: in, q: q, core: gidx % n}
			rq.task = r.Sys.CPU(rq.core).NewTask("rxintr."+queueName(in, q), cpu.IPLDevice, 0, cpu.ClassIntr)
			rq.task.SetCenter(prov.CenterRxIntr)
			rq.loop = rq.rxLoop
			rq.enqueue = rq.enqueueIP
			// The hardware interrupt: pay the dispatch cost, then start
			// the batched per-packet loop.
			in.SetRxQueueInterrupt(q, func() {
				rq.task.Post(r.Cfg.Costs.IntrDispatch, rq.loop)
			})
			gidx++
		}
	}

	// Every port that can transmit gets a device-IPL transmit-complete
	// handler (on the boot CPU: output interfaces are not steered).
	for _, port := range r.ports {
		port.txTask = r.CPU.NewTask("txintr."+port.nic.Name(), cpu.IPLDevice, 0, cpu.ClassIntr)
		port.txTask.SetCenter(prov.CenterTxIntr)
		tx := &txHandler{u: u, port: port}
		tx.loop = tx.txLoop
		tx.refill = tx.refillTx
		port.nic.SetTxInterrupt(func() {
			port.txTask.Post(r.Cfg.Costs.IntrDispatch, tx.loop)
		})
	}
	return u
}

// queueName names a per-queue object of NIC n: the NIC's own name for a
// single-queue NIC, suffixed .q<q> when RSS spreads it over several.
func queueName(n *nic.NIC, q int) string {
	if n.RxQueues() == 1 {
		return n.Name()
	}
	return fmt.Sprintf("%s.q%d", n.Name(), q)
}

// rxPktCost returns the device-IPL per-packet cost, with the compat
// penalty in ModePolledCompat.
func (u *unmodifiedPath) rxPktCost() sim.Duration {
	c := u.r.Cfg.Costs.RxDevicePerPkt
	if u.r.Cfg.Mode == ModePolledCompat {
		c += u.r.Cfg.Costs.CompatPenalty
	}
	return c
}

func (u *unmodifiedPath) fwdPktCost() sim.Duration {
	c := u.r.Cfg.Costs.IPForwardPerPkt
	if u.r.Cfg.Mode == ModePolledCompat {
		c += u.r.Cfg.Costs.CompatPenalty
	}
	return c
}

// rxLoop processes one packet per work item at device IPL, continuing
// while rq's ring is non-empty (interrupt batching: the dispatch cost
// was paid once, by the interrupt that started the loop). The ipintrq
// enqueue is the item's locked tail (under ipqLock on SMP), and the
// netisr raised is the one on the handler's own core. The interrupt
// latch stays asserted until the ring is drained, so only one loop per
// queue is ever running and at most one packet is in hand.
func (rq *rxQueue) rxLoop() {
	if rq.pkt != nil {
		panic("kernel: rx loop item posted while the previous packet is still in hand")
	}
	p := rq.in.TakeRxQueue(rq.q)
	if p == nil {
		rq.in.RxQueueIntrDone(rq.q)
		return
	}
	u := rq.u
	rq.pkt = p
	rq.task.PostLockedTail(u.r.ipqLock, u.rxPktCost(), u.r.Cfg.Costs.LockOp, prov.CenterRxIntr, rq.enqueue)
}

// enqueueIP is the end of an rxLoop item. Link-level processing done:
// the device cycles just consumed are invested in the packet's
// provenance record, then the promiscuous monitor is tapped and the
// packet handed to the IP layer via ipintrq. A full queue drops it here
// — after the device work was spent (the "foolish" drop of §6.3).
//
//lkvet:requires ipqLock
func (rq *rxQueue) enqueueIP() {
	u := rq.u
	p := rq.pkt
	rq.pkt = nil
	u.r.ld.Check(u.r.ipintrq)
	u.r.invest(p, prov.CenterRxIntr, u.rxPktCost())
	u.r.tapMonitor(p)
	if u.r.ipintrq.Enqueue(p) {
		u.r.observe(p, prov.StageIPIntrQEnqueue, prov.ReasonNone)
		u.schedNetisrOn(rq.core)
	} else {
		u.r.drop(p, prov.ReasonIPIntrQFull)
	}
	if u.r.Cfg.DisableBatching {
		// Ablation: one packet per interrupt; the next packet pays
		// a fresh dispatch cost.
		rq.in.RxQueueIntrDone(rq.q)
		return
	}
	rq.rxLoop()
}

// schedNetisrOn raises core's network software interrupt if it is not
// already pending there.
func (u *unmodifiedPath) schedNetisrOn(core int) {
	ni := &u.netisrs[core]
	if ni.sched {
		return
	}
	ni.sched = true
	ni.task.Post(u.r.Cfg.Costs.SoftintDispatch, ni.run)
}

// loop forwards one packet per work item at softint IPL; the
// output-side work is the item's locked tail (under netLock on SMP).
// The softint is raised only while not pending and each forwarding
// item re-enters loop at its end, so one item is outstanding at a time.
func (ni *netisr) loop() {
	r := ni.u.r
	//lkvet:allow lockguard racy emptiness peek; a stale result only costs one idle reschedule round
	if r.ipintrq.Empty() {
		ni.sched = false
		return
	}
	if ni.busy {
		panic("kernel: netisr forwarding item posted while another is outstanding")
	}
	ni.busy = true
	ni.cost = ni.u.fwdPktCost()
	if r.ipqLock != nil {
		// Claim first: every core's netisr drains the one ipintrq, so
		// on SMP the dequeue runs under ipqLock ahead of the body —
		// another core may have taken the packet since this round was
		// scheduled. Its hold is carved out of the forwarding cost.
		ni.hold = min(r.Cfg.Costs.LockOp, ni.cost)
		ni.cost -= ni.hold
		ni.task.PostLocked(r.ipqLock, ni.hold, prov.CenterIPInput, ni.claim)
	} else if r.netLock == nil && r.screend == nil {
		// One CPU: nothing else touches the queue head before this
		// item runs, so the flow-cache cost peek is exact.
		if head := r.ipintrq.Peek(); head != nil && r.fastPathHit(head.Data) {
			ni.cost -= r.Cfg.Costs.FastPathSavings
		}
	}
	ni.task.PostLockedTail(r.netLock, ni.cost, r.Cfg.Costs.LockOp, prov.CenterIPInput, ni.forward)
}

// claimHead is the SMP claim-first item: dequeue the head under ipqLock
// for the forwarding item after it.
//
//lkvet:requires ipqLock
func (ni *netisr) claimHead() {
	r := ni.u.r
	if ni.claimed != nil {
		panic("kernel: netisr claim while the previous claimed packet is still in hand")
	}
	r.ld.Check(r.ipintrq)
	ni.claimed = r.ipintrq.Dequeue()
	if ni.claimed != nil {
		r.invest(ni.claimed, prov.CenterIPInput, ni.hold)
	}
}

// forwardHead is the end of a forwarding item: IP input for the packet
// take returns, then the next round of loop.
//
//lkvet:requires netLock
func (ni *netisr) forwardHead() {
	ni.busy = false
	if p := ni.take(); p != nil {
		ni.u.r.invest(p, prov.CenterIPInput, ni.cost)
		ni.u.r.observe(p, prov.StageSoftIPInput, prov.ReasonNone)
		ni.u.deliverIP(p)
	}
	ni.loop()
}

// take returns the packet for this netisr's forwarding item: the one
// its claim-first item dequeued on SMP or, with no ipqLock (one CPU),
// the queue head, dequeued now.
func (ni *netisr) take() *netstack.Packet {
	r := ni.u.r
	if r.ipqLock == nil {
		return r.ipintrq.Dequeue()
	}
	p := ni.claimed
	ni.claimed = nil
	return p
}

// deliverIP is the IP layer: locally-addressed packets go to the
// socket/ICMP machinery; with screend configured, transit packets are
// queued to the screening process; otherwise they are forwarded
// directly. It runs as the netisr item's locked tail.
//
//lkvet:requires netLock
func (u *unmodifiedPath) deliverIP(p *netstack.Packet) {
	if _, local := u.r.isLocal(p.Data); local {
		u.r.deliverLocal(p)
		return
	}
	if u.r.screend != nil {
		u.r.screend.submit(p)
		return
	}
	u.r.forwardFrame(p)
}

// txLoop reclaims one transmit descriptor per work item at device IPL;
// the ifStart refill is the item's locked tail (under netLock on SMP:
// the output ifqueue is shared with every core's netisr).
func (tx *txHandler) txLoop() {
	port := tx.port
	if !port.nic.ReclaimTx() {
		port.nic.TxIntrDone()
		return
	}
	c := &tx.u.r.Cfg.Costs
	port.txTask.PostLockedTail(tx.u.r.netLock, c.TxDevicePerPkt, c.LockOp, prov.CenterTxIntr, tx.refill)
}

// refillTx is the end of a txLoop item: refill the transmitter from
// the output ifqueue, then reclaim the next descriptor.
//
//lkvet:requires netLock
func (tx *txHandler) refillTx() {
	tx.u.r.ifStart(tx.port)
	tx.txLoop()
}
