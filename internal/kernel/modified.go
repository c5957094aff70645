package kernel

import (
	"fmt"

	"livelock/internal/core"
	"livelock/internal/cpu"
	"livelock/internal/netstack"
	"livelock/internal/prov"
	"livelock/internal/queue"
	"livelock/internal/sim"
)

// Gate source names.
const (
	gateFeedback = "screend-queue-feedback"
	gateCycles   = "cycle-limit"
)

// polledPath implements the modified kernel of §6.4: the interrupt
// handler "does almost no work at all" — it schedules the polling thread
// and leaves device interrupts masked; the polling thread's callbacks
// then process received packets to completion (no ipintrq) and reclaim
// transmit descriptors, round-robin with a per-callback quota, and
// re-enable interrupts only when no work is pending. Queue-state
// feedback (§6.6.1) and the CPU cycle limiter (§7) inhibit input through
// a shared gate.
type polledPath struct {
	r       *Router
	gate    *core.Gate
	clocked bool // periodic polling, no device interrupts (§8)

	feedback *core.Feedback
	limiter  *core.CycleLimiter

	// pollers holds one polling thread per non-IRQ core, each serving
	// the rx queues steered to it; pollers[0] runs on the boot CPU.
	// rxRefs records the (port, queue) → poller assignment for the
	// gate-reopen and watchdog paths; netPort.txPoller records which
	// poller runs each port's transmit-reclaim step.
	pollers []*core.Poller
	one     [1]*core.Poller // backs pollers on a uniprocessor (no allocation)
	rxRefs  []rxQueueRef
	rxOne   [1]rxQueueRef // backs rxRefs for a single-queue input (no allocation)
}

// rxQueueRef is one steered receive queue and the poller serving it.
type rxQueueRef struct {
	port *netPort
	q    int
	pol  *core.Poller
}

//lkvet:requires boot
func newPolledPath(r *Router) *polledPath {
	m := &polledPath{r: r, gate: core.NewGate(), clocked: r.Cfg.ClockedPollInterval > 0}
	c := r.Cfg.Costs

	pcfg := core.PollerConfig{
		Quota:      r.Cfg.Quota,
		WakeupCost: c.PollWakeup,
		RoundCost:  c.PollRound,
	}
	m.one[0] = core.NewPoller(r.Eng, r.CPU, 10, pcfg)
	m.pollers = m.one[:]
	m.rxRefs = m.rxOne[:0]
	// One polling thread per core, minus any cores dedicated to
	// interrupt handling (Config.IRQCPUs isolation).
	for k := 1; k < r.Cfg.CPUs-r.Cfg.IRQCPUs; k++ {
		m.pollers = append(m.pollers,
			core.NewNamedPoller(r.Eng, r.Sys.CPU(k), fmt.Sprintf("poller.%d", k), 10, pcfg))
	}

	// Input gating: the poller skips receive callbacks while the gate
	// is closed; transmit processing is never gated (§7: "the
	// cycle-limit mechanism inhibits packet input processing but not
	// output processing").
	for _, pol := range m.pollers {
		pol.SetRxGate(func(*core.Device) bool { return m.gate.Open() })
	}

	// When the gate re-opens, unmask receive interrupts so backlogged
	// rings immediately re-assert (unless the poller serving them is
	// about to notice the backlog itself).
	m.gate.OnChange = func(open bool) {
		if !open || m.clocked {
			return
		}
		for _, ref := range m.rxRefs {
			if !ref.pol.Scheduled() {
				ref.port.nic.RxQueueIntrDone(ref.q)
			}
		}
	}

	if r.Cfg.Feedback && r.Cfg.Screend {
		m.feedback = m.attachQueueFeedback(r.screendq, gateFeedback, r.Cfg.ScreendQHigh, r.Cfg.ScreendQLow)
	}

	if th := r.Cfg.CycleLimitThreshold; th > 0 && th < 1 {
		m.limiter = core.NewCycleLimiter(m.gate, gateCycles, r.Cfg.CycleLimitPeriod, th)
		for _, pol := range m.pollers {
			pol.SetUsageHook(m.limiter.NoteUsage)
		}
		r.CPU.OnIdle(m.limiter.OnIdle)
	}

	m.initDevices()
	if m.clocked {
		m.scheduleClockedPoll()
	}
	return m
}

// initDevices is the device registration (§6.4 "at boot time, the
// modified interface drivers register themselves with the polling
// system"). Every port registers both directions: inputs receive the
// flood and transmit router-originated frames (ICMP, replies); the
// output port only transmits, with poller 0. Each input NIC exposes one
// device per rx queue, assigned round-robin (by global queue index) to
// the polling threads; a port's transmit-reclaim step rides on its
// first queue's device. Every step's commit runs under r.netLock on SMP,
// where the output ifqueues and screend queue are shared across cores.
// Per-queue MSI-like interrupt tasks land on the queue's own core, or on
// the dedicated IRQ cores when Config.IRQCPUs isolates them; transmit
// interrupt tasks are steered the same way after every rx queue.
func (m *polledPath) initDevices() {
	r := m.r
	c := r.Cfg.Costs
	n := r.Sys.N()
	nPoll := len(m.pollers)
	nIRQ := r.Cfg.IRQCPUs

	irqCPU := func(idx int) *cpu.CPU {
		if nIRQ > 0 {
			return r.Sys.CPU(nPoll + idx%nIRQ)
		}
		return r.Sys.CPU(idx % n)
	}
	nullStep := func() (sim.Duration, func(), bool) { return 0, nil, false }
	register := func(pol *core.Poller, name string, port *netPort, q int, hasRx, hasTx bool) {
		dev := &core.Device{
			Name:       name,
			Rx:         nullStep,
			Tx:         nullStep,
			Lock:       r.netLock,
			LockedTail: c.LockOp,
			EnableInterrupts: func() {
				// Clocked mode never re-enables interrupts: the next
				// period's timer finds the work.
				if m.clocked {
					return
				}
				// Unmask receive only while input is allowed; a closed
				// gate leaves the interrupt held off so the ring absorbs
				// (and then cheaply drops) the flood. Transmit
				// completions are reclaimed lazily by rx-driven polling;
				// the transmit interrupt is re-enabled only when reclaim
				// is urgent — packets stranded on the ifqueue, or most
				// descriptors consumed — following the
				// avoid-transmit-interrupts practice the paper cites
				// (§7.1, [6]).
				if hasRx && m.gate.Open() {
					port.nic.RxQueueIntrDone(q)
				}
				//lkvet:allow lockguard racy urgency peek at interrupt re-enable; a stale result only re-enables the tx interrupt early
				if hasTx && (!port.outq.Empty() || port.nic.TxCompletedLen() > r.Cfg.NIC.TxRing/2) {
					port.nic.TxIntrDone()
				}
			},
		}
		if hasRx {
			dev.Rx = newPolledRx(r, port, q).step
			m.rxRefs = append(m.rxRefs, rxQueueRef{port: port, q: q, pol: pol})
		}
		if hasTx {
			dev.Tx = m.txStep(port)
			port.txPoller = pol
		}
		pol.Register(dev)
	}

	nRx := 0
	for _, in := range r.Ins {
		nRx += in.RxQueues()
	}
	gidx := 0
	for i, port := range r.ports {
		if port.idx == OutIfIndex {
			register(m.pollers[0], port.nic.Name(), port, 0, false, true)
		} else {
			for q := 0; q < port.nic.RxQueues(); q++ {
				pol := m.pollers[gidx%nPoll]
				register(pol, queueName(port.nic, q), port, q, true, q == 0)
				task := irqCPU(gidx).NewTask("rxintr."+queueName(port.nic, q), cpu.IPLDevice, 0, cpu.ClassIntr)
				task.SetCenter(prov.CenterRxIntr)
				// The whole interrupt handler: dispatch cost, then schedule
				// the polling thread. The interrupt stays masked (no
				// RxQueueIntrDone) until the poller re-enables it.
				sched := pol.ScheduleFunc()
				port.nic.SetRxQueueInterrupt(q, func() {
					task.Post(c.IntrDispatch, sched)
				})
				gidx++
			}
		}
		// Transmit interrupts wake the poller that owns the port's
		// reclaim step.
		txTask := irqCPU(nRx+i).NewTask("txintr."+port.nic.Name(), cpu.IPLDevice, 0, cpu.ClassIntr)
		txTask.SetCenter(prov.CenterTxIntr)
		sched := port.txPoller.ScheduleFunc()
		port.nic.SetTxInterrupt(func() {
			txTask.Post(c.IntrDispatch, sched)
		})
		if m.clocked {
			port.nic.EnableRxInterrupt(false)
			port.nic.EnableTxInterrupt(false)
		}
	}
}

// scheduleClockedPoll drives the pure-polling design: the polling thread
// is made runnable every ClockedPollInterval regardless of device state.
func (m *polledPath) scheduleClockedPoll() {
	m.r.Eng.AfterCall(m.r.Cfg.ClockedPollInterval, clockedPoll, m, nil)
}

// clockedPoll is the periodic poll callback (sim.Callback shape).
func clockedPoll(a, _ any) {
	m := a.(*polledPath)
	for _, pol := range m.pollers {
		pol.Schedule()
	}
	m.scheduleClockedPoll()
}

// polledRx is the driver state of one polled rx queue of an input
// port. Its step takes one packet and returns one of three commits,
// bound once at registration; the packet and the cost charged for it
// are handed to the commit in pkt and cost. The poller runs one step
// at a time, so at most one packet is ever in hand.
type polledRx struct {
	r    *Router
	port *netPort
	q    int

	pkt  *netstack.Packet
	cost sim.Duration

	local, screend, forward func()
}

func newPolledRx(r *Router, port *netPort, q int) *polledRx {
	d := &polledRx{r: r, port: port, q: q}
	d.local = d.commitLocal
	d.screend = d.commitScreend
	d.forward = d.commitForward
	return d
}

// step is the received-packet callback for the queue: one packet
// processed to completion per step, pulled only from queue q so each
// poller drains exactly the queues whose interrupts it owns. "The
// received-packet callback procedures call the IP input processing
// routine directly, rather than placing received packets on a queue"
// (§6.4).
func (d *polledRx) step() (sim.Duration, func(), bool) {
	if d.pkt != nil {
		panic("kernel: polled rx step while the previous packet is still in hand")
	}
	p := d.port.nic.TakeRxQueue(d.q)
	if p == nil {
		return 0, nil, false
	}
	r := d.r
	c := &r.Cfg.Costs
	r.tapMonitor(p)
	d.pkt = p
	// Every commit runs under the device lock: core.Poller posts it
	// with PostLockedTail(Device.Lock) — r.netLock here.
	if _, local := r.isLocal(p.Data); local {
		d.cost = c.PolledRxLocalPerPkt
		return d.cost, d.local, true
	}
	if r.screend != nil {
		d.cost = c.PolledRxToScreendPerPkt
		return d.cost, d.screend, true
	}
	d.cost = c.PolledRxPerPkt
	//lkvet:allow lockguard unlocked cost-model peek at the flow cache; the authoritative lookup runs in the locked commit
	if r.fastPathHit(p.Data) {
		d.cost -= c.FastPathSavings
	}
	return d.cost, d.forward, true
}

// take returns the packet handed over by step, clears the hand-off and
// invests the step's cost in the packet.
func (d *polledRx) take() *netstack.Packet {
	p := d.pkt
	d.pkt = nil
	d.r.invest(p, prov.CenterIPInput, d.cost)
	return p
}

//lkvet:requires netLock
func (d *polledRx) commitLocal() {
	p := d.take()
	d.r.observe(p, prov.StagePollRxLocal, prov.ReasonNone)
	d.r.deliverLocal(p)
}

//lkvet:requires netLock
func (d *polledRx) commitScreend() {
	p := d.take()
	d.r.observe(p, prov.StagePollRxScreend, prov.ReasonNone)
	d.r.screend.submit(p)
}

//lkvet:requires netLock
func (d *polledRx) commitForward() {
	p := d.take()
	d.r.observe(p, prov.StagePollRxForward, prov.ReasonNone)
	d.r.forwardFrame(p)
}

// txStep returns the transmitted-packet callback: reclaim one descriptor
// and refill the transmitter. A reclaim hands nothing over, so the
// refill commit is bound once per port.
func (m *polledPath) txStep(port *netPort) core.Step {
	c := m.r.Cfg.Costs
	// Under the device lock (r.netLock; nil on a uniprocessor).
	//lkvet:requires netLock
	refill := func() { m.r.ifStart(port) }
	return func() (sim.Duration, func(), bool) {
		if !port.nic.ReclaimTx() {
			return 0, nil, false
		}
		return c.PolledTxPerPkt, refill, true
	}
}

// attachQueueFeedback applies the §6.6.1 queue-state feedback technique
// to q with the given watermarks: the screend queue, and — "the same
// queue-state feedback technique could be applied to other queues in
// the system" — socket buffers and the monitor's capture ring (a nil q:
// the monitor signals its own watermarks). The returned controller
// inhibits input through the shared gate; q's producer calls its
// Pressure and q's consumer its Progress.
func (m *polledPath) attachQueueFeedback(q *queue.Queue, source string, high, low int) *core.Feedback {
	return core.NewFeedback(m.r.Eng, m.gate, source, m.r.Cfg.FeedbackTimeout, q, high, low)
}

// onTick counts hardclock ticks into cycle-limiter periods and runs
// the interface watchdog.
func (m *polledPath) onTick(ticks uint64) {
	if m.limiter != nil {
		period := uint64(m.limiter.Period / clockTick)
		if period == 0 {
			period = 1
		}
		if ticks%period == 0 {
			m.limiter.Tick()
		}
	}
	m.watchdog()
}

// watchdog recovers, once per hardclock tick, from the two ways the
// event-driven polled path can settle with work it will never notice —
// the analogue of BSD's if_watchdog slow-timeout. Both states were
// found by the schedule explorer (internal/explore) and are otherwise
// permanent: no future event re-examines them.
//
// Receive side: a ring holds frames, receive interrupts are unmasked,
// yet no interrupt is pending. The only way in is a lost interrupt
// assertion (fault-injected; in a fault-free run unmasked+backlogged
// implies asserted, so the watchdog never fires). RxIntrDone re-asserts
// exactly as the driver's re-enable path would have.
//
// Transmit side: an ifqueue holds frames while every transmit
// descriptor sits completed-but-unreclaimed. Reclaim is lazy — done by
// poller rounds or the transmit interrupt — but the transmit interrupt
// was already latched pending when the last completions arrived, so
// with receive quiet nothing ever schedules the poller again
// (TxCompletedLen == TxRing implies nothing is queued or in flight, so
// no completion event is coming either). One poller round reclaims the
// ring and restarts output.
//
// Gated off while input is inhibited: the gate's OnChange hook handles
// recovery at reopen, and a closed gate means the system is already
// fielding feedback/cycle-limit pressure, not wedged.
//
// Each steered rx queue and each port's transmit ring is checked
// against the poller that serves it.
func (m *polledPath) watchdog() {
	if m.clocked || !m.gate.Open() {
		return
	}
	for _, ref := range m.rxRefs {
		if ref.pol.Scheduled() {
			continue
		}
		n := ref.port.nic
		if n.RxQueueLen(ref.q) > 0 && !n.RxQueuePending(ref.q) && n.RxInterruptEnabled() {
			n.RxQueueIntrDone(ref.q)
			return
		}
	}
	for _, port := range m.r.ports {
		pol := port.txPoller
		if pol == nil || pol.Scheduled() {
			continue
		}
		//lkvet:allow lockguard racy watchdog peek from the boot CPU; a stale result only delays recovery one tick
		if !port.outq.Empty() && port.nic.TxCompletedLen() == m.r.Cfg.NIC.TxRing {
			pol.Schedule()
			return
		}
	}
}
