// Package cpu models a single processor whose dispatching rules are those
// of an interrupt-driven UNIX kernel: tasks have an interrupt priority
// level (IPL) and, within an IPL, a scheduling priority; a task that
// becomes runnable at a strictly higher (IPL, priority) immediately
// preempts the running task, while tasks at the same level run FIFO and
// are never preempted by their peers. This is precisely the structure
// (§4.1 of the paper) that makes receive livelock possible, so the model
// reproduces it exactly rather than approximating it.
//
// Work is expressed as items: a CPU cost (simulated duration) paid first,
// then an action function that runs atomically when the cost has been
// consumed. Preemption can occur at any instant during the cost; the
// action stands in for the short critical section (guarded by spl() in a
// real kernel) at the end of a code path, e.g. "enqueue the packet".
//
// The CPU keeps cycle accounting per task and per accounting class, and
// exposes a fine-grained cycle counter equivalent (§7: the Alpha's
// process cycle counter) via Task.Consumed and CPU.ClassTime.
package cpu

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"livelock/internal/prov"
	"livelock/internal/sim"
)

// IPL is an interrupt priority level. Higher values preempt lower ones.
type IPL int

// The IPLs used by the kernel models, mirroring the 4.2BSD arrangement in
// figure 6-2 of the paper: device interrupts (SPLIMP) above the network
// software interrupt (SPLNET), which is above thread level; the clock is
// above everything.
const (
	IPLThread IPL = 0 // kernel threads and user processes
	IPLSoft   IPL = 2 // software interrupts (SPLNET)
	IPLDevice IPL = 4 // network device interrupts (SPLIMP)
	IPLClock  IPL = 6 // hardclock
)

// String names the level.
func (l IPL) String() string {
	switch l {
	case IPLThread:
		return "thread"
	case IPLSoft:
		return "softint"
	case IPLDevice:
		return "device"
	case IPLClock:
		return "clock"
	default:
		return fmt.Sprintf("ipl%d", int(l))
	}
}

// Class categorizes CPU time for utilization reporting.
type Class int

// Accounting classes.
const (
	ClassIdle   Class = iota
	ClassIntr         // device interrupt handlers
	ClassSoft         // software-interrupt protocol processing
	ClassKernel       // kernel threads (the polling thread)
	ClassUser         // user processes (screend, compute-bound tasks)
	ClassClock        // hardclock and timers
	NumClasses
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassIdle:
		return "idle"
	case ClassIntr:
		return "intr"
	case ClassSoft:
		return "soft"
	case ClassKernel:
		return "kernel"
	case ClassUser:
		return "user"
	case ClassClock:
		return "clock"
	default:
		return fmt.Sprintf("class%d", int(c))
	}
}

// workItem is 48 bytes: the small fields share the last word.
type workItem struct {
	cost sim.Duration // remaining cost of the copy at the head
	full sim.Duration // cost of each further copy (see repeat)
	spin sim.Duration // lock spin, filled in at dispatch
	fn   func()

	// lock, when non-nil, makes this a critical-section item: at
	// dispatch the CPU acquires lock (spinning with interrupts disabled
	// until it is free, FIFO), holds it for cost, runs fn at unlock, and
	// restores the saved interrupt flag. spin and savedInt are filled in
	// at dispatch.
	lock *FairLock

	// repeat counts further identical copies queued behind this one,
	// each costing full: a run of nil-fn, unlocked posts of the same
	// cost and center is one item, so a starved task's backlog does
	// not grow its slice (see Task).
	repeat   int32
	center   prov.Center // cost center the item's cycles are charged to
	savedInt bool
}

// Task is a schedulable entity: an interrupt handler, a software
// interrupt, a kernel thread, or a user process. A task with no pending
// work items is blocked (or, for a handler, not asserted); posting work
// makes it runnable.
//
// Work items queue FIFO. A nil-fn, unlocked item posted behind an
// identical one (same cost and center) is run-length queued: the tail
// item's repeat count goes up instead of the queue growing. The copies
// still run one at a time, each at full cost, and are dispatched,
// charged, preempted, hooked and counted exactly as separate items
// would be, so the only difference is memory: a starved task's
// backlog of periodic work costs one item, not one per post.
type Task struct {
	name   string
	ipl    IPL
	prio   int
	class  Class
	center prov.Center

	items   []workItem
	head    int
	repeats int // Σ repeat over the queued items

	// lvl is its (ipl, prio) rank's ready list; nextReady its link there.
	lvl       int
	ready     bool
	nextReady *Task

	consumed sim.Duration
	cpu      *CPU
}

// Name returns the task's name.
func (t *Task) Name() string { return t.name }

// IPL returns the task's interrupt priority level.
func (t *Task) IPL() IPL { return t.ipl }

// Class returns the task's accounting class.
func (t *Task) Class() Class { return t.class }

// SetCenter declares the cost center work posted via Post is charged
// to (PostCenter overrides it per item). Tasks default to
// prov.CenterUnattributed, which the cycle-conservation ledger still
// covers — untagged work is visible, not lost.
func (t *Task) SetCenter(c prov.Center) {
	if c >= prov.NumCenters {
		panic("cpu: invalid cost center")
	}
	t.center = c
}

// Center returns the task's default cost center.
func (t *Task) Center() prov.Center { return t.center }

// Pending returns the number of queued work items (including the one
// currently executing, if any), counting every run-length queued copy.
func (t *Task) Pending() int { return len(t.items) - t.head + t.repeats }

// Consumed returns the total CPU time this task has used, including the
// partially-consumed current item if the task is running right now. This
// is the simulation's equivalent of reading the cycle counter around a
// code region (§7).
func (t *Task) Consumed() sim.Duration {
	c := t.consumed
	if t.cpu.cur == t {
		c += t.cpu.eng.Now().Sub(t.cpu.curStart)
	}
	return c
}

// Post queues a work item: cost is charged to the CPU first, then fn runs
// atomically. fn may be nil. Posting to a higher-priority task than the
// one running preempts immediately. Negative cost panics. The item's
// cycles are charged to the task's default cost center.
func (t *Task) Post(cost sim.Duration, fn func()) {
	t.PostCenter(cost, t.center, fn)
}

// PostCenter is Post with an explicit cost center, for tasks whose
// items do different kinds of work (the polling thread charges receive
// callbacks to ip-input and reclaim callbacks to output, while its
// wakeups and sweeps stay poll-overhead).
func (t *Task) PostCenter(cost sim.Duration, center prov.Center, fn func()) {
	if cost < 0 {
		panic("cpu: negative work cost")
	}
	if center >= prov.NumCenters {
		panic("cpu: invalid cost center")
	}
	if tail := t.tail(); fn == nil && tail != nil && tail.fn == nil && tail.lock == nil &&
		tail.full == cost && tail.center == center && tail.repeat < math.MaxInt32 {
		tail.repeat++
		t.repeats++
	} else {
		t.items = append(t.items, workItem{cost: cost, center: center, fn: fn, full: cost})
	}
	c := t.cpu
	if !t.ready && t != c.cur {
		c.markReady(t)
	}
	c.reschedule()
}

// PostLocked queues a critical-section item guarded by l: when the item
// is dispatched the CPU saves its interrupt-enable flag, disables
// interrupts, and spins until the lock is free (FIFO handoff — cores
// acquire in dispatch order); it then holds the lock for cost, runs fn
// atomically at unlock, and restores the interrupt flag. Spin cycles
// are charged to prov.CenterLock, hold cycles to center. This is the
// awkernel FairLock discipline: spin_lock_irqsave semantics with fair
// queueing, so no core can starve behind a lucky neighbor.
func (t *Task) PostLocked(l *FairLock, cost sim.Duration, center prov.Center, fn func()) {
	if l == nil {
		panic("cpu: PostLocked with nil lock")
	}
	if cost < 0 {
		panic("cpu: negative work cost")
	}
	if center >= prov.NumCenters {
		panic("cpu: invalid cost center")
	}
	t.items = append(t.items, workItem{cost: cost, center: center, fn: fn, lock: l})
	c := t.cpu
	if c.ld != nil {
		// A PostLocked issued from inside a critical section is the
		// simulator's nested acquisition: feed the lock-order graph.
		c.ld.posted(l)
	}
	if !t.ready && t != c.cur {
		c.markReady(t)
	}
	c.reschedule()
}

// PostLockedTail posts one per-packet cost whose final tail touches
// state guarded by l. With a nil lock (a uniprocessor kernel creates
// none) it is exactly PostCenter(cost, center, fn): one item. With a
// lock it posts an unlocked body of cost−tail, then PostLocked(l, tail,
// center, fn). The tail is clamped to cost, so the total charged is
// always cost — SMP adds only spin, charged to prov.CenterLock.
func (t *Task) PostLockedTail(l *FairLock, cost, tail sim.Duration, center prov.Center, fn func()) {
	if l == nil {
		t.PostCenter(cost, center, fn)
		return
	}
	if tail > cost {
		tail = cost
	}
	if cost > tail {
		t.PostCenter(cost-tail, center, nil)
	}
	t.PostLocked(l, tail, center, fn)
}

// dropHead retires the head copy; the next one starts at full cost.
func (t *Task) dropHead() {
	if head := &t.items[t.head]; head.repeat > 0 {
		head.repeat--
		head.cost = head.full
		t.repeats--
		return
	}
	t.items[t.head] = workItem{}
	t.head++
	if t.head == len(t.items) {
		t.items = t.items[:0]
		t.head = 0
	}
}

func (t *Task) peekItem() *workItem { return &t.items[t.head] }

// tail returns the last queued item, or nil when none is queued.
func (t *Task) tail() *workItem {
	if len(t.items) == t.head {
		return nil
	}
	return &t.items[len(t.items)-1]
}

// CPU is the processor model. It is driven entirely by the simulation
// engine and must only be used from engine events.
type CPU struct {
	eng *sim.Engine
	id  int

	// ld is the optional lock-discipline checker, shared by every CPU
	// in the System; nil (the default) disables it with no dispatch
	// cost beyond the nil compares.
	ld *Lockdep

	// intEnabled is the per-CPU interrupt-enable flag: while false
	// (inside a spinlock critical section, or an explicit
	// SaveAndDisableInterrupts window) no task preempts the one
	// running, regardless of IPL. Dispatch of new work when the CPU is
	// idle is unaffected.
	intEnabled bool

	tasks []*Task

	// Per level (Task.lvl) a circular FIFO of ready tasks kept by its
	// tail, and a bit set while it is non-empty; inline to 8 and 64.
	levels    []*Task
	mask      []uint64
	levelsBuf [8]*Task
	maskBuf   [1]uint64

	cur        *Task
	curStart   sim.Time
	completion sim.Timer

	idleSince sim.Time
	isIdle    bool
	inHooks   bool
	idleHooks []func()

	classTime   [NumClasses]sim.Duration
	centerTime  [prov.NumCenters]sim.Duration
	busy        sim.Duration
	dispatches  uint64
	preemptions uint64

	runHook func(t *Task, start, end sim.Time)
}

// New returns an idle CPU attached to the engine.
func New(eng *sim.Engine) *CPU {
	c := &CPU{}
	c.init(eng)
	return c
}

// init prepares a zero CPU in place (System embeds its boot CPU).
func (c *CPU) init(eng *sim.Engine) {
	c.eng = eng
	c.isIdle = true
	c.intEnabled = true
	c.levels = c.levelsBuf[:0]
	c.mask = c.maskBuf[:]
	c.completion.Init(cpuComplete, c, nil)
}

// ID returns the CPU's index within its System (0 for a standalone CPU).
func (c *CPU) ID() int { return c.id }

// InterruptsEnabled reports the per-CPU interrupt-enable flag.
func (c *CPU) InterruptsEnabled() bool { return c.intEnabled }

// SaveAndDisableInterrupts disables preemption on this CPU and returns
// the previous flag value, to be handed back to RestoreInterrupts —
// the spl-style save/restore pair a spinlock wraps its critical
// section in. Nesting works: inner sections save "disabled" and
// restore it, so interrupts only truly re-enable at the outermost
// restore.
func (c *CPU) SaveAndDisableInterrupts() bool {
	was := c.intEnabled
	c.intEnabled = false
	return was
}

// RestoreInterrupts restores a flag saved by SaveAndDisableInterrupts.
// If interrupts become enabled and a higher-priority task pended while
// they were off, the preemption fires now (like dropping spl).
func (c *CPU) RestoreInterrupts(saved bool) {
	c.intEnabled = saved
	if saved {
		c.reschedule()
	}
}

// NewTask registers a task. Higher ipl always beats lower; within an
// ipl, higher prio beats lower; within (ipl, prio), FIFO by the order
// tasks became runnable.
func (c *CPU) NewTask(name string, ipl IPL, prio int, class Class) *Task {
	if class < 0 || class >= NumClasses {
		panic("cpu: invalid accounting class")
	}
	t := &Task{name: name, ipl: ipl, prio: prio, class: class, cpu: c}
	// Levels are dense (ipl, prio) ranks: a new rank's empty level opens
	// above the ranks below it, and those above move up, FIFOs and all.
	fresh := true
	for _, u := range c.tasks {
		if u.ipl == ipl && u.prio == prio {
			t.lvl, fresh = u.lvl, false
		} else if u.ipl < ipl || u.ipl == ipl && u.prio < prio {
			t.lvl = max(t.lvl, u.lvl+1)
		}
	}
	if fresh {
		for _, u := range c.tasks {
			if u.lvl >= t.lvl {
				u.lvl++
			}
		}
		c.levels = slices.Insert(c.levels, t.lvl, nil)
		if len(c.levels) > 64*len(c.mask) {
			c.mask = append(c.mask, 0)
		}
		clear(c.mask)
		for l, tail := range c.levels {
			if tail != nil {
				c.mask[l>>6] |= 1 << (l & 63)
			}
		}
	}
	c.tasks = append(c.tasks, t)
	return t
}

// VisitTasks calls fn for every registered task in creation order.
// Construction is deterministic, so the order is stable across runs of
// the same configuration; exploration harnesses rely on that to
// fingerprint per-task backlog canonically. fn must not post work.
func (c *CPU) VisitTasks(fn func(*Task)) {
	for _, t := range c.tasks {
		fn(t)
	}
}

// SetRunHook installs fn, invoked every time the CPU stops executing a
// task — item completion or mid-item preemption — with the task and the
// half-open interval [start, end) it just held the processor for. The
// observability layer derives per-task scheduling spans (Perfetto
// tracks) from this; fn must not re-enter the CPU.
func (c *CPU) SetRunHook(fn func(t *Task, start, end sim.Time)) { c.runHook = fn }

// OnIdle registers a hook invoked whenever the CPU runs out of work (the
// idle thread). Hooks may post work. The modified kernel uses this to
// re-enable input handling (§7).
func (c *CPU) OnIdle(fn func()) { c.idleHooks = append(c.idleHooks, fn) }

// Idle reports whether the CPU is currently idle.
func (c *CPU) Idle() bool { return c.cur == nil }

// Running returns the currently executing task, or nil when idle.
func (c *CPU) Running() *Task { return c.cur }

// BusyTime returns total non-idle CPU time, including the current
// partial item.
func (c *CPU) BusyTime() sim.Duration {
	b := c.busy
	if c.cur != nil {
		b += c.eng.Now().Sub(c.curStart)
	}
	return b
}

// ClassTime returns the CPU time consumed by a class, including the
// current partial item.
func (c *CPU) ClassTime(cl Class) sim.Duration {
	v := c.classTime[cl]
	if c.cur != nil && c.cur.class == cl {
		v += c.eng.Now().Sub(c.curStart)
	}
	return v
}

// CenterTime returns the CPU time charged to a cost center, including
// the current partial item. The profiler's per-center utilization
// columns and folded-stack frames read this.
func (c *CPU) CenterTime(ct prov.Center) sim.Duration {
	return c.centerTime[ct] + c.curCenterPartial(ct)
}

// curCenterPartial attributes the running item's elapsed time to cost
// centers: a locked item spends its leading spin in prov.CenterLock and
// only the remainder in its own center, so mid-item audits stay exact.
func (c *CPU) curCenterPartial(ct prov.Center) sim.Duration {
	if c.cur == nil {
		return 0
	}
	it := c.cur.peekItem()
	elapsed := c.eng.Now().Sub(c.curStart)
	spin := it.spin
	if spin > elapsed {
		spin = elapsed
	}
	var v sim.Duration
	if ct == prov.CenterLock {
		v += spin
	}
	if ct == it.center {
		v += elapsed - spin
	}
	return v
}

// AuditCycles verifies the cycle-conservation ledger at the given
// instant: the per-center times must sum exactly to total busy time,
// and busy plus idle must cover the whole timeline since t=0 (the CPU
// is constructed with the engine at time zero). A non-nil error means
// a charge path bypassed the per-center accounting — the cycle
// equivalent of the packet ledger's lost buffer.
func (c *CPU) AuditCycles(now sim.Time) error {
	var centers sim.Duration
	for ct := prov.Center(0); ct < prov.NumCenters; ct++ {
		centers += c.CenterTime(ct)
	}
	busy := c.BusyTime()
	if centers != busy {
		return fmt.Errorf("cpu: cycle conservation violated: Σ center time %v != busy %v (Δ %v)",
			centers, busy, centers-busy)
	}
	if total := busy + c.IdleTime(); total != sim.Duration(now) {
		return fmt.Errorf("cpu: cycle conservation violated: busy %v + idle %v = %v != elapsed %v",
			busy, c.IdleTime(), total, sim.Duration(now))
	}
	return nil
}

// IdleTime returns accumulated idle time.
func (c *CPU) IdleTime() sim.Duration {
	v := c.classTime[ClassIdle]
	if c.cur == nil && c.isIdle {
		v += c.eng.Now().Sub(c.idleSince)
	}
	return v
}

// IPLTime returns the cumulative CPU time consumed by tasks at
// interrupt priority level l, including the current partial item. The
// sampler differentiates this into per-IPL utilization.
func (c *CPU) IPLTime(l IPL) sim.Duration { return c.iplTime(l, l) }

// RaisedIPLTime returns the cumulative CPU time spent above thread
// level — device interrupts, software interrupts, and the clock. Under
// receive livelock this is the quantity that saturates: the paper's
// "100% of its time processing receive interrupts" (§3) is this
// utilization pinned at 1.0 while thread-level work gets nothing.
func (c *CPU) RaisedIPLTime() sim.Duration { return c.iplTime(IPLThread+1, math.MaxInt) }

// iplTime sums the CPU time of the tasks at IPLs lo through hi.
func (c *CPU) iplTime(lo, hi IPL) sim.Duration {
	var v sim.Duration
	for _, t := range c.tasks {
		if lo <= t.ipl && t.ipl <= hi {
			v += t.Consumed()
		}
	}
	return v
}

// Dispatches returns the number of times a task started executing.
func (c *CPU) Dispatches() uint64 { return c.dispatches }

// Preemptions returns the number of mid-item preemptions.
func (c *CPU) Preemptions() uint64 { return c.preemptions }

// markReady queues t at the back of its level.
func (c *CPU) markReady(t *Task) {
	c.pushFront(t)
	c.levels[t.lvl] = t
}

// pushFront queues t at the front of its level, just after the tail.
func (c *CPU) pushFront(t *Task) {
	t.ready = true
	if tail := c.levels[t.lvl]; tail != nil {
		t.nextReady, tail.nextReady = tail.nextReady, t
		return
	}
	t.nextReady = t
	c.levels[t.lvl] = t
	c.mask[t.lvl>>6] |= 1 << (t.lvl & 63)
}

// topLevel returns the highest level with a ready task, or -1.
func (c *CPU) topLevel() int {
	for i := len(c.mask) - 1; i >= 0; i-- {
		if w := c.mask[i]; w != 0 {
			return i<<6 + bits.Len64(w) - 1
		}
	}
	return -1
}

// takeHead dequeues the task at the front of level l.
func (c *CPU) takeHead(l int) *Task {
	tail := c.levels[l]
	t := tail.nextReady
	if t == tail {
		c.levels[l] = nil
		c.mask[l>>6] &^= 1 << (l & 63)
	} else {
		tail.nextReady = t.nextReady
	}
	t.nextReady, t.ready = nil, false
	return t
}

// charge is the single site that accumulates busy time; every consumed
// cycle lands in exactly one class and one cost center here, which is
// what makes the cycle-conservation audit exact rather than best-effort.
func (c *CPU) charge(t *Task, center prov.Center, d sim.Duration) {
	t.consumed += d
	c.classTime[t.class] += d
	c.centerTime[center] += d
	c.busy += d
}

// reschedule enforces the dispatching invariant: the CPU runs the
// highest-priority runnable task, preempting mid-item if necessary.
func (c *CPU) reschedule() {
	if c.cur != nil && !c.intEnabled {
		// Interrupts disabled (spinlock critical section): the
		// running item cannot be preempted; pended work is
		// re-evaluated when the flag is restored.
		return
	}
	top := c.topLevel()
	if c.cur != nil {
		if top <= c.cur.lvl {
			return
		}
		c.preempt()
	}
	if top < 0 {
		c.enterIdle()
		return
	}
	c.start(c.takeHead(top))
}

func (c *CPU) preempt() {
	t := c.cur
	now := c.eng.Now()
	elapsed := now.Sub(c.curStart)
	c.charge(t, t.peekItem().center, elapsed)
	if c.runHook != nil {
		c.runHook(t, c.curStart, now)
	}
	t.peekItem().cost -= elapsed
	c.eng.Disarm(&c.completion)
	c.cur = nil
	c.preemptions++
	// The preempted task resumes before every task at its level: it
	// was the front of its FIFO when picked, and all since are behind.
	c.pushFront(t)
}

func (c *CPU) start(t *Task) {
	now := c.eng.Now()
	if c.isIdle {
		c.classTime[ClassIdle] += now.Sub(c.idleSince)
		c.isIdle = false
	}
	c.cur = t
	c.curStart = now
	c.dispatches++
	it := t.peekItem()
	run := it.cost
	if it.lock != nil {
		// Acquire at dispatch: the lock hands out FIFO reservations, so
		// the spin delay is known immediately (critical sections run
		// with interrupts disabled and are never preempted, so every
		// holder releases exactly hold-cost after acquiring). A locked
		// item is dispatched exactly once — preemption is blocked for
		// its whole spin+hold window.
		it.spin = it.lock.reserve(now, it.cost)
		it.savedInt = c.SaveAndDisableInterrupts()
		run += it.spin
		if c.ld != nil {
			c.ld.acquire(c, it.lock)
		}
	}
	// The CPU's own completion timer: no event from the free list.
	c.eng.ArmAfter(&c.completion, run)
}

// cpuComplete is the completion-timer callback (sim.Callback shape).
func cpuComplete(a, _ any) { a.(*CPU).complete() }

func (c *CPU) complete() {
	t := c.cur
	it := t.peekItem()
	if it.spin > 0 {
		c.charge(t, prov.CenterLock, it.spin)
	}
	c.charge(t, it.center, it.cost)
	fn, lock, savedInt := it.fn, it.lock, it.savedInt
	t.dropHead()
	if c.runHook != nil {
		c.runHook(t, c.curStart, c.eng.Now())
	}
	c.cur = nil
	if lock != nil {
		// Unlock: restore the interrupt flag saved at acquisition
		// before the commit fn runs, so work fn posts is dispatched
		// under normal preemption rules.
		c.intEnabled = savedInt
	}
	if t.Pending() > 0 {
		// Back of its level, so equal-priority tasks round-robin at
		// item granularity.
		c.markReady(t)
	}
	if lock != nil && c.ld != nil {
		c.ld.release(c, lock)
	}
	if fn != nil {
		if lock != nil && c.ld != nil {
			// The commit fn is the critical section's body: it runs at
			// the unlock instant but logically under the lock.
			c.ld.enter(c, lock)
			fn()
			c.ld.exit()
		} else {
			fn()
		}
	}
	c.reschedule()
}

func (c *CPU) enterIdle() {
	if !c.isIdle {
		c.isIdle = true
		c.idleSince = c.eng.Now()
	}
	if c.inHooks {
		return
	}
	c.inHooks = true
	for _, h := range c.idleHooks {
		h()
		if c.cur != nil {
			break // a hook posted work and we are running again
		}
	}
	c.inHooks = false
}

// Utilization returns the fraction of time in [0, now] spent in each
// class, plus idle as ClassIdle. The fractions sum to ~1 once the clock
// has advanced.
func (c *CPU) Utilization() map[Class]float64 {
	now := c.eng.Now()
	total := sim.Duration(now)
	out := make(map[Class]float64, NumClasses)
	if total <= 0 {
		return out
	}
	for cl := Class(0); cl < NumClasses; cl++ {
		v := c.ClassTime(cl)
		if cl == ClassIdle {
			v += c.IdleTime() - c.classTime[ClassIdle]
		}
		out[cl] = float64(v) / float64(total)
	}
	return out
}
