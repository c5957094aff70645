// Package core implements the paper's contribution: the livelock-avoiding
// scheduling machinery of §5-7. It is deliberately independent of the
// kernel models that use it.
//
//   - Poller: a kernel-thread polling loop that drivers register with.
//     Interrupts only schedule the poller; callbacks then process packets
//     to completion, round-robin across devices and across the receive
//     and transmit directions, under a per-callback packet quota (§6.4,
//     §6.6.2). When no work remains, the poller re-enables interrupts.
//   - Gate: the input-enable gate, aggregating inhibition requests from
//     independent sources (queue feedback, cycle limiter).
//   - Feedback: queue-state feedback with a re-enable timeout (§6.6.1).
//   - CycleLimiter: the CPU-usage budget that guarantees progress for
//     user-level processes (§7).
package core

import (
	"livelock/internal/cpu"
	"livelock/internal/prov"
	"livelock/internal/sim"
	"livelock/internal/stats"
)

// Step processes one unit of work (one packet, one transmit reclaim).
// Implementations return the CPU cost of the unit and a commit action to
// run once the cost has been consumed, or ok=false if no work is
// pending. This mirrors the cpu package's work-item shape so the poller
// can charge each unit at the right time and remain preemptible between
// units.
type Step func() (cost sim.Duration, commit func(), ok bool)

// Device is a driver's registration with the polling system (§6.4: "At
// boot time, the modified interface drivers register themselves with the
// polling system, providing callback procedures for handling received
// and transmitted packets, and for enabling interrupts").
type Device struct {
	// Name identifies the device in stats and traces.
	Name string
	// Rx processes one received packet to completion.
	Rx Step
	// Tx reclaims one transmit completion (freeing a descriptor) and
	// refills the transmitter.
	Tx Step
	// EnableInterrupts is invoked when the poller has no pending work,
	// so that a subsequent packet event causes an interrupt. The driver
	// decides which directions to enable (it must not re-enable receive
	// interrupts while input is inhibited by feedback or cycle limits).
	EnableInterrupts func()

	// Lock, when non-nil (SMP), serializes each step's commit: the
	// final LockedTail of the step's cost runs as a FairLock critical
	// section and the commit executes at its end (cpu.Task.
	// PostLockedTail). The lock hold is carved out of the step's cost,
	// not added to it, so a single-CPU or uncontended run spends exactly
	// the same cycles per step.
	Lock       *cpu.FairLock
	LockedTail sim.Duration
}

// PollerConfig carries the poller's cost model and quota.
type PollerConfig struct {
	// Quota is the maximum packets a single callback may handle per
	// visit before control returns to the polling loop (§6.6.2).
	// Zero or negative means unlimited — the configuration shown to
	// livelock in figure 6-3.
	Quota int
	// WakeupCost is charged when the poller is scheduled (thread
	// dispatch / context switch).
	WakeupCost sim.Duration
	// RoundCost is charged at the start of each round-robin sweep
	// (checking the registered devices' service-needed flags). Small
	// quotas amortize this less well, which is the §6.6.2 observation
	// that small quotas slightly reduce peak throughput.
	RoundCost sim.Duration
}

// Poller is the polling kernel thread.
type Poller struct {
	eng  *sim.Engine
	task *cpu.Task
	cfg  PollerConfig

	devices []*Device
	rxGate  func(*Device) bool // true → rx processing allowed
	usage   func(sim.Duration) // cycle-accounting hook, may be nil

	scheduled bool
	running   bool
	// schedule is Schedule bound once, for interrupt handlers to post.
	schedule func()

	// Round state.
	devIdx    int
	doingTx   bool
	usedQuota int
	roundWork int
	visitBase sim.Duration // task.Consumed() at start of current visit

	// Rounds counts full round-robin sweeps; Wakeups counts thread
	// scheduling events; RxSteps/TxSteps count work units processed.
	Rounds  *stats.Counter
	Wakeups *stats.Counter
	RxSteps *stats.Counter
	TxSteps *stats.Counter
}

// NewPoller creates the polling thread on c at the given thread priority.
// rxGate, if non-nil, is consulted before each receive step; returning
// false skips receive processing for that device (input inhibited).
func NewPoller(eng *sim.Engine, c *cpu.CPU, prio int, cfg PollerConfig) *Poller {
	// Literal concatenations constant-fold, so the default poller's
	// counter names cost no allocations (routers are built in bulk by
	// figure sweeps, and the uniprocessor path must not pay for SMP).
	return newPoller(eng, c, "poller",
		"poller"+".rounds", "poller"+".wakeups", "poller"+".rx", "poller"+".tx", prio, cfg)
}

// NewNamedPoller is NewPoller with an explicit thread name — SMP
// configurations run one polling thread per core ("poller",
// "poller.1", ...).
func NewNamedPoller(eng *sim.Engine, c *cpu.CPU, name string, prio int, cfg PollerConfig) *Poller {
	return newPoller(eng, c, name,
		name+".rounds", name+".wakeups", name+".rx", name+".tx", prio, cfg)
}

func newPoller(eng *sim.Engine, c *cpu.CPU, name, rounds, wakeups, rx, tx string, prio int, cfg PollerConfig) *Poller {
	p := &Poller{
		eng:     eng,
		cfg:     cfg,
		Rounds:  stats.NewCounter(rounds),
		Wakeups: stats.NewCounter(wakeups),
		RxSteps: stats.NewCounter(rx),
		TxSteps: stats.NewCounter(tx),
	}
	p.task = c.NewTask(name, cpu.IPLThread, prio, cpu.ClassKernel)
	// The thread's own machinery (wakeups, round sweeps) is polling
	// overhead; the packet work its callbacks do is re-attributed per
	// step below.
	p.task.SetCenter(prov.CenterPollOverhead)
	p.schedule = p.Schedule
	return p
}

// Task exposes the underlying CPU task (for accounting).
func (p *Poller) Task() *cpu.Task { return p.task }

// Register adds a device to the round-robin schedule.
func (p *Poller) Register(d *Device) {
	if d.Rx == nil || d.Tx == nil {
		panic("core: device must provide Rx and Tx steps")
	}
	p.devices = append(p.devices, d)
}

// SetRxGate installs the input-inhibition predicate.
func (p *Poller) SetRxGate(gate func(*Device) bool) { p.rxGate = gate }

// SetUsageHook installs a hook invoked with the CPU time consumed by
// each completed callback visit; the cycle limiter uses this (§7).
func (p *Poller) SetUsageHook(fn func(sim.Duration)) { p.usage = fn }

// Scheduled reports whether the poller is scheduled or running.
func (p *Poller) Scheduled() bool { return p.scheduled }

// QuotaUsed returns the number of work units handled so far in the
// current callback visit; it resets to zero at each visit boundary.
// Exposed for invariant checking: it must never exceed a positive
// configured Quota.
func (p *Poller) QuotaUsed() int { return p.usedQuota }

// Quota returns the configured per-visit packet quota (zero or
// negative means unlimited).
func (p *Poller) Quota() int { return p.cfg.Quota }

// ScheduleFunc returns Schedule as a func value bound once per poller,
// so an interrupt handler can post it without allocating.
func (p *Poller) ScheduleFunc() func() { return p.schedule }

// Schedule makes the polling thread runnable, if it is not already. This
// is everything an interrupt handler does in the modified kernel (§6.4:
// "the interrupt handler ... simply schedules the polling thread (if it
// has not already been scheduled) ... and then returns").
func (p *Poller) Schedule() {
	if p.scheduled {
		return
	}
	p.scheduled = true
	p.Wakeups.Inc()
	p.task.Post(p.cfg.WakeupCost, p.beginRound)
}

func (p *Poller) beginRound() {
	p.Rounds.Inc()
	p.devIdx = 0
	p.doingTx = false
	p.usedQuota = 0
	p.roundWork = 0
	p.task.Post(p.cfg.RoundCost, p.step)
}

// rxAllowed applies the gate.
func (p *Poller) rxAllowed(d *Device) bool {
	return p.rxGate == nil || p.rxGate(d)
}

// step runs one scheduling decision of the polling loop: either post the
// next work unit (and come back here when it completes) or advance the
// round-robin cursor.
func (p *Poller) step() {
	for {
		if p.devIdx >= len(p.devices) {
			if p.roundWork > 0 {
				// Work was found this sweep; sweep again before
				// sleeping, since more may have arrived.
				p.beginRound()
			} else {
				p.finish()
			}
			return
		}
		dev := p.devices[p.devIdx]
		var s Step
		var counter *stats.Counter
		if !p.doingTx {
			if p.rxAllowed(dev) {
				s = dev.Rx
				counter = p.RxSteps
			}
		} else {
			s = dev.Tx
			counter = p.TxSteps
		}
		if s != nil && p.quotaLeft() {
			if cost, commit, ok := s(); ok {
				p.roundWork++
				p.usedQuota++
				counter.Inc()
				// Packet work is charged to the direction's cost center,
				// not to poll overhead: receive callbacks do IP input
				// work, transmit callbacks do output-side reclaim.
				center := prov.CenterIPInput
				if p.doingTx {
					center = prov.CenterOutput
				}
				p.task.PostLockedTail(dev.Lock, cost, dev.LockedTail, center, func() {
					if commit != nil {
						commit()
					}
					p.step()
				})
				return
			}
		}
		p.endVisit()
	}
}

func (p *Poller) quotaLeft() bool {
	return p.cfg.Quota <= 0 || p.usedQuota < p.cfg.Quota
}

// endVisit closes the current (device, direction) callback visit:
// reports its CPU usage and advances the cursor.
func (p *Poller) endVisit() {
	if p.usage != nil {
		consumed := p.task.Consumed()
		if d := consumed - p.visitBase; d > 0 {
			p.usage(d)
		}
		p.visitBase = consumed
	}
	p.usedQuota = 0
	if !p.doingTx {
		p.doingTx = true
	} else {
		p.doingTx = false
		p.devIdx++
	}
}

// finish ends a wakeup: re-enable interrupts on every device and go to
// sleep. If a device immediately re-asserts (packets arrived during the
// final sweep), Schedule is called re-entrantly from EnableInterrupts
// via the driver, and the thread wakes again.
func (p *Poller) finish() {
	p.scheduled = false
	for _, d := range p.devices {
		if d.EnableInterrupts != nil {
			d.EnableInterrupts()
		}
	}
}
