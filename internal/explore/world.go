package explore

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"

	"livelock/internal/cpu"
	"livelock/internal/fault"
	"livelock/internal/kernel"
	"livelock/internal/netstack"
	"livelock/internal/nic"
	"livelock/internal/queue"
	"livelock/internal/sim"
	"livelock/internal/workload"
)

// fixedGap is a degenerate arrival process: a constant inter-arrival
// gap with no RNG consumption, so concurrent generators emit at
// genuinely identical instants — the raw material of tie enumeration.
type fixedGap sim.Duration

func (g fixedGap) Next(*sim.RNG) sim.Duration { return sim.Duration(g) }

// EmitIndependent is the independence oracle for generator pacing:
// two same-instant emit events of different generators commute — each
// generator draws no randomness under a fixed gap, stamps its own
// packet IDs, and transmits on its own wire, so the two orders reach
// the same state. Deliveries, interrupts, and CPU events are never
// reported independent: they race through shared queues.
func EmitIndependent(a, b string) bool {
	const emit = "workload.generatorEmit("
	return a != b && strings.HasPrefix(a, emit) && strings.HasPrefix(b, emit)
}

// pendEvent is a pending engine event in canonical (schedule-invariant)
// form for fingerprinting.
type pendEvent struct {
	delta uint64 // firing time relative to now
	label string
	pid   uint64 // packet ID when the event carries one
}

// world is one execution's system under test plus its monitors.
type world struct {
	sc      *Scenario
	opts    *Options
	ctl     *controller
	eng     *sim.Engine
	r       *kernel.Router
	gens    []*workload.Generator
	snd     *kernel.TCPSender
	tcpRx   *kernel.TCPReceiver
	reorder *fault.WireReorder

	labels  map[any]string
	fnNames map[uintptr]string
	scratch []string
	pend    []pendEvent

	lastProgress sim.Time
	hystErr      string
	lockdepErr   string
	expectHigh   bool // next legal screendq crossing is OnHigh
	monitorEvery sim.Duration
}

func newWorld(sc *Scenario, opts *Options, ctl *controller) *world {
	eng := sim.NewEngine()
	w := &world{
		sc:         sc,
		opts:       opts,
		ctl:        ctl,
		eng:        eng,
		labels:     make(map[any]string),
		fnNames:    make(map[uintptr]string),
		expectHigh: true,
	}
	eng.SetTieBreaker(ctl.breakTie)

	// Force determinism: no stochastic fault plane (the adversary
	// replaces it), no tracing or metrics sampling.
	cfg := sc.Config
	cfg.InputNICs = sc.Sources
	cfg.Fault = fault.Config{}
	cfg.Trace = nil
	cfg.Metrics = nil
	// Arm the runtime lock-discipline checker on every world. It costs
	// nothing on uniprocessor configs (no Lockdep is created) and adds
	// no simulated time on SMP ones, so fingerprints and the committed
	// corpus are unchanged.
	cfg.Lockdep = true
	w.r = kernel.NewRouter(eng, cfg)
	if ld := w.r.Lockdep(); ld != nil {
		ld.SetOnViolation(func(msg string) {
			if w.lockdepErr == "" {
				w.lockdepErr = msg
			}
		})
	}

	// Stable labels for choice sites and fingerprints.
	w.labels[w.r] = "router"
	for _, in := range w.r.Ins {
		w.labels[in] = in.Name()
	}
	w.labels[w.r.Out] = w.r.Out.Name()
	for i, wire := range w.r.SourceWires {
		w.labels[wire] = fmt.Sprintf("srcwire%d", i)
	}
	w.labels[w] = "explore.monitor"

	// Output-progress monitor: any valid sink delivery, on the stub or
	// a reverse Ethernet, counts as progress.
	wrapSink := func(s *nic.Sink) {
		prev := s.OnDeliver
		s.OnDeliver = func(p *netstack.Packet) {
			w.lastProgress = eng.Now()
			if prev != nil {
				prev(p)
			}
		}
	}
	wrapSink(w.r.Sink)
	for _, rs := range w.r.RevSinks {
		wrapSink(rs)
	}

	// Hysteresis monitor: screendq watermark callbacks must strictly
	// alternate. Wrapped after NewRouter so the feedback hooks
	// installed there stay first in the chain.
	if _, _, sq := w.r.QueueStats(); sq != nil {
		oh, ol := sq.OnHigh, sq.OnLow
		sq.OnHigh = func() {
			if !w.expectHigh {
				w.hystErr = "screendq OnHigh fired twice without an intervening OnLow"
			}
			w.expectHigh = false
			if oh != nil {
				oh()
			}
		}
		sq.OnLow = func() {
			if w.expectHigh {
				w.hystErr = "screendq OnLow fired without a preceding OnHigh"
			}
			w.expectHigh = true
			if ol != nil {
				ol()
			}
		}
	}

	// Workload: fixed-gap generators so arrivals tie. With a TCP flow,
	// source 0 hosts the sender instead of a generator.
	for i := 0; i < sc.Sources; i++ {
		if sc.TCP != nil && i == 0 {
			continue
		}
		g := w.r.AttachGenerator(i, fixedGap(sc.Gap), uint64(sc.PacketsPerSource))
		w.labels[g] = fmt.Sprintf("gen%d", i)
		w.gens = append(w.gens, g)
	}
	if tc := sc.TCP; tc != nil {
		rx := w.r.OpenTCPReceiver(tc.Port)
		if tc.Variant == kernel.VariantSACK {
			rx.EnableSACK()
		}
		if tc.Resequence > 0 {
			rx.SetResequencing(tc.Resequence)
		}
		snd := w.r.AttachTCPSender(0, kernel.TCPSenderConfig{
			Port: tc.Port, MSS: tc.MSS, TotalBytes: tc.TotalBytes,
			RTO: tc.RTO, MaxCwnd: tc.MaxCwnd, Variant: tc.Variant,
		})
		w.snd, w.tcpRx = snd, rx
		w.labels[snd] = "tcpsender"
		w.labels[rx] = "tcpreceiver"
	}

	// Fault choice points, referred to the exploration controller.
	adv := &fault.Adversary{Decide: ctl.decide}
	if sc.IntrLossBudget > 0 {
		for _, in := range w.r.Ins {
			adv.AttachRxIntrLoss(in, sc.IntrLossBudget)
		}
	}
	if sc.ReorderBudget > 0 {
		w.reorder = adv.AttachWireReorder(eng, w.r.SourceWires[0], "srcwire0",
			sc.ReorderBudget, sc.ReorderSpan, sc.ReorderFlush)
		w.labels[w.reorder] = "reorder:srcwire0"
	}
	for _, at := range sc.StallProbes {
		adv.ScheduleStall(eng, sim.Time(0).Add(at), w.r.Ins[0], sc.StallDuration)
	}
	for _, at := range sc.PauseProbes {
		adv.SchedulePause(eng, sim.Time(0).Add(at), sc.PauseDuration,
			w.r.HangScreend, w.r.ResumeScreend)
	}

	return w
}

// start arms the workload and the monitor events.
func (w *world) start() {
	for _, g := range w.gens {
		g.Start()
	}
	if w.snd != nil {
		w.snd.Start()
	}
	w.monitorEvery = w.sc.ProgressWindow / 3
	if w.monitorEvery <= 0 {
		w.monitorEvery = sim.Millisecond
	}
	w.eng.AfterCall(w.monitorEvery, monitorProbe, w, nil)
	w.eng.AtCall(sim.Time(0).Add(w.sc.Horizon), horizonSweep, w, nil)
}

// monitorProbe checkpoints the invariants between tie sites — a wedged
// system fires few events and would otherwise evade checking.
func monitorProbe(x, _ any) {
	w := x.(*world)
	if w.ctl.stopped {
		return
	}
	w.checkpoint(0, nil)
	if w.ctl.stopped {
		return
	}
	w.eng.AfterCall(w.monitorEvery, monitorProbe, w, nil)
}

// horizonSweep force-closes any fault window still open at the horizon
// (probe durations normally end earlier), so end-state invariants
// judge a system that has been given every chance to recover: a wedge
// that survives the drain is the system's fault, not the adversary's.
func horizonSweep(x, _ any) {
	w := x.(*world)
	w.r.ResumeScreend()
	for _, in := range w.r.Ins {
		in.SetRxStalled(false)
	}
}

// checkpoint runs the invariants and, at a tie site (ties, due at at,
// non-nil) during exploration, the state-dedup cut.
func (w *world) checkpoint(at sim.Time, ties []sim.Tie) {
	c := w.ctl
	if w.eng.Fired() > w.opts.MaxEventsPerExec {
		c.clipped = true
		c.stop()
		return
	}
	if inv, detail := w.check(); inv != "" {
		c.fail(inv, detail)
		return
	}
	// Dedup only strictly beyond the prefix: at the divergence site
	// itself the state equals the parent execution's (already cached)
	// state, and pruning there would cut the branch before it diverges.
	if ties != nil && c.seen != nil && len(c.path) > len(c.prefix) {
		fp := w.fingerprint(at, ties)
		remaining := c.opts.DepthBudget - len(c.path)
		if prev, ok := c.seen[fp]; ok && prev >= remaining {
			c.prune()
			return
		} else if !ok || remaining > prev {
			c.seen[fp] = remaining
		}
	}
}

// check evaluates the run-time invariants, returning the first
// violated one (empty strings when all hold).
func (w *world) check() (string, string) {
	on := w.opts.Invariants
	now := w.eng.Now()
	if on&InvHysteresis != 0 && w.hystErr != "" {
		return "hysteresis", w.hystErr
	}
	if on&InvLockdep != 0 && w.lockdepErr != "" {
		return "lockdep", w.lockdepErr
	}
	if on&InvConservation != 0 {
		if err := w.r.Audit(w.r.Offered()); err != nil {
			return "conservation", err.Error()
		}
	}
	if on&InvBudget != 0 {
		if pi := w.r.PolledInternals(); pi != nil {
			if q := pi.Poller.Quota(); q > 0 && pi.Poller.QuotaUsed() > q {
				return "budget", fmt.Sprintf(
					"poller consumed %d packets of a %d-packet quota", pi.Poller.QuotaUsed(), q)
			}
			if pi.Limiter != nil && pi.Limiter.Used() >= pi.Limiter.Budget() &&
				!pi.Limiter.Inhibited() {
				return "budget", fmt.Sprintf(
					"cycle limiter consumed %v of a %v budget without inhibiting input",
					pi.Limiter.Used(), pi.Limiter.Budget())
			}
		}
	}
	if on&InvHandles != 0 {
		if n := w.eng.Pending(); n > w.sc.MaxPendingEvents {
			return "handles", fmt.Sprintf(
				"%d events pending (scenario bound %d): leaked events or runaway self-scheduling",
				n, w.sc.MaxPendingEvents)
		}
	}
	if on&InvProgress != 0 {
		if alive := w.r.Account().Alive; alive == 0 {
			w.lastProgress = now
		} else if d := sim.Duration(now - w.lastProgress); d > w.sc.ProgressWindow {
			return "progress", fmt.Sprintf(
				"%d frame(s) buffered with no sink delivery for %v (window %v): receive livelock or a wedged path",
				alive, d, w.sc.ProgressWindow)
		}
	}
	if on&InvNoSpuriousRtx != 0 && w.snd != nil {
		recovery := w.snd.Retransmits.Value() + w.snd.Timeouts.Value() +
			w.snd.RtxSegments.Value()
		if recovery > 0 && !w.lossSignaled() {
			return "spurious-rtx", fmt.Sprintf(
				"sender recovery fired (%d fast-retransmit signals, %d timeouts, %d retransmitted segments) on a schedule with no drop and no injected reorder",
				w.snd.Retransmits.Value(), w.snd.Timeouts.Value(), w.snd.RtxSegments.Value())
		}
	}
	return "", ""
}

// lossSignaled reports whether anything on this schedule could
// legitimately have looked like loss to the transport: a frame dropped
// anywhere in the system, or a reorder the adversary injected. Both
// counters precede their downstream effects (a drop is counted when the
// frame dies, an injection when the hold begins), so checking them at
// any boundary is sound.
func (w *world) lossSignaled() bool {
	if w.r.Account().Dropped() > 0 {
		return true
	}
	return w.reorder != nil && w.reorder.Injected() > 0
}

// checkEnd evaluates the quiescent-state invariants after the drain.
func (w *world) checkEnd() {
	c := w.ctl
	if inv, detail := w.check(); inv != "" {
		c.fail(inv, detail)
		return
	}
	on := w.opts.Invariants
	if on&InvProgress != 0 {
		if alive := w.r.Account().Alive; alive != 0 {
			c.fail("progress", fmt.Sprintf(
				"%d frame(s) still buffered after the drain: the system wedged instead of finishing its work", alive))
			return
		}
		if w.snd != nil && !w.snd.Done {
			c.fail("progress", fmt.Sprintf(
				"TCP transfer incomplete at quiescence: %d of %d bytes acknowledged",
				w.snd.AckedBytes(), w.sc.TCP.TotalBytes))
			return
		}
	}
	if on&InvReenable != 0 {
		if pi := w.r.PolledInternals(); pi != nil {
			if !pi.Gate.Open() {
				c.fail("reenable", "input gate still closed at quiescence: an inhibition was never released")
				return
			}
			if !pi.Clocked {
				for _, in := range w.r.Ins {
					if !in.RxInterruptEnabled() {
						c.fail("reenable", in.Name()+": receive interrupts still disabled at quiescence")
						return
					}
				}
			}
		}
		if _, _, sq := w.r.QueueStats(); sq != nil && sq.AboveHigh() {
			c.fail("reenable", "screendq still in the above-high-watermark regime at quiescence")
			return
		}
	}
	if on&InvHandles != 0 {
		if n := w.eng.Pending(); n > w.sc.MaxQuiescentEvents {
			c.fail("handles", fmt.Sprintf(
				"%d events still pending at quiescence (bound %d): leaked events or armed timers",
				n, w.sc.MaxQuiescentEvents))
			return
		}
	}
}

// tieLabels renders a tie set for the controller; the returned slice
// is valid until the next call.
func (w *world) tieLabels(ties []sim.Tie) []string {
	w.scratch = w.scratch[:0]
	for _, t := range ties {
		w.scratch = append(w.scratch, w.eventLabel(t.Fn, t.Arg))
	}
	return w.scratch
}

func (w *world) eventLabel(fn sim.Callback, a any) string {
	name := w.fnName(fn)
	arg := w.argLabel(a)
	if arg == "" {
		return name
	}
	return name + "(" + arg + ")"
}

func (w *world) fnName(fn sim.Callback) string {
	pc := reflect.ValueOf(fn).Pointer()
	if s, ok := w.fnNames[pc]; ok {
		return s
	}
	s := "?"
	if f := runtime.FuncForPC(pc); f != nil {
		s = strings.TrimPrefix(f.Name(), "livelock/internal/")
	}
	w.fnNames[pc] = s
	return s
}

// argLabel resolves an event operand to a registered instance label,
// falling back to its type name. Non-comparable operands (closures)
// cannot key the label map and always fall back.
func (w *world) argLabel(a any) string {
	if a == nil {
		return ""
	}
	t := reflect.TypeOf(a)
	if t.Comparable() {
		if s, ok := w.labels[a]; ok {
			return s
		}
	}
	return t.String()
}

// fnv64a primitives for state fingerprinting.
type hasher struct{ h uint64 }

func newHasher() hasher { return hasher{h: 14695981039346656037} }

func (z *hasher) u64(v uint64) {
	for i := 0; i < 8; i++ {
		z.h ^= v & 0xff
		z.h *= 1099511628211
		v >>= 8
	}
}

func (z *hasher) int(v int) { z.u64(uint64(int64(v))) }
func (z *hasher) str(s string) {
	for i := 0; i < len(s); i++ {
		z.h ^= uint64(s[i])
		z.h *= 1099511628211
	}
	z.u64(uint64(len(s)))
}
func (z *hasher) bool(v bool) {
	if v {
		z.u64(1)
	} else {
		z.u64(0)
	}
}

// fingerprint hashes the forward-relevant state at an event boundary:
// pending events in canonical order (relative times, stable labels),
// queue contents by packet ID, device and control-plane state, and the
// progress clock. Monotone counters that cannot influence future
// behaviour are excluded so converging schedules actually collide.
// The engine holds a tie site's tie set, due at at, out of its queue.
func (w *world) fingerprint(at sim.Time, ties []sim.Tie) uint64 {
	z := newHasher()
	now := w.eng.Now()

	w.pend = w.pend[:0]
	pending := func(when sim.Time, fn sim.Callback, a, b any) {
		pe := pendEvent{
			delta: uint64(int64(when) - int64(now)),
			label: w.eventLabel(fn, a),
		}
		if p, ok := b.(*netstack.Packet); ok && p != nil {
			pe.pid = p.ID
		}
		w.pend = append(w.pend, pe)
	}
	w.eng.VisitPending(pending)
	for _, t := range ties {
		pending(at, t.Fn, t.Arg, t.Arg2)
	}
	sort.Slice(w.pend, func(i, j int) bool {
		a, b := w.pend[i], w.pend[j]
		if a.delta != b.delta {
			return a.delta < b.delta
		}
		if a.label != b.label {
			return a.label < b.label
		}
		return a.pid < b.pid
	})
	for _, pe := range w.pend {
		z.u64(pe.delta)
		z.str(pe.label)
		z.u64(pe.pid)
	}

	w.r.VisitPorts(func(idx int, n *nic.NIC, outq *queue.Queue) {
		z.int(idx)
		z.int(n.RxLen())
		z.bool(n.RxPending())
		z.bool(n.RxInterruptEnabled())
		z.bool(n.RxStalled())
		// Interrupt-coalescing state: whether each queue's holdoff timer
		// is armed, and (adaptive policy) its current count threshold.
		for q := 0; q < n.RxQueues(); q++ {
			z.bool(n.RxQueueHoldoffPending(q))
			z.int(n.RxQueueCoalesceThresh(q))
		}
		z.int(n.TxQueuedLen())
		z.int(n.TxInFlight())
		z.int(n.TxCompletedLen())
		z.bool(n.TxPending())
		z.int(outq.Len())
		outq.Each(func(p *netstack.Packet) { z.u64(p.ID) })
		z.bool(outq.AboveHigh())
	})
	ipq, _, sq := w.r.QueueStats()
	for _, q := range []*queue.Queue{ipq, sq} {
		if q == nil {
			z.int(-1)
			continue
		}
		z.int(q.Len())
		q.Each(func(p *netstack.Packet) { z.u64(p.ID) })
		z.bool(q.AboveHigh())
	}

	z.int(w.r.Pool.Available())
	// Every core's run-queue depth, running task, and interrupt flag is
	// forward-relevant; on a uniprocessor this degenerates to the
	// pre-SMP hash over the boot CPU.
	w.r.VisitCPUs(func(c *cpu.CPU) {
		c.VisitTasks(func(t *cpu.Task) { z.int(t.Pending()) })
		if cur := c.Running(); cur != nil {
			z.str(cur.Name())
		} else {
			z.str("")
		}
		z.bool(c.InterruptsEnabled())
	})
	// FairLock reservations: how much longer each shared-queue lock is
	// spoken for decides future spin times, so it is state; absolute
	// acquisition counters are not.
	ipqL, netL := w.r.Locks()
	for _, l := range []*cpu.FairLock{ipqL, netL} {
		if l == nil {
			z.int(-1)
			continue
		}
		if d := int64(l.HeldUntil()) - int64(now); d > 0 {
			z.u64(uint64(d))
		} else {
			z.u64(0)
		}
	}

	z.bool(w.r.InputInhibited())
	if pi := w.r.PolledInternals(); pi != nil {
		z.bool(pi.Poller.Scheduled())
		z.int(pi.Poller.QuotaUsed())
		if pi.Limiter != nil {
			z.u64(uint64(pi.Limiter.Used()))
			z.bool(pi.Limiter.Inhibited())
		}
		if pi.Feedback != nil {
			z.bool(pi.Feedback.Inhibited())
		}
	}
	hung, scheduled := w.r.ScreendState()
	z.bool(hung)
	z.bool(scheduled)
	z.bool(w.expectHigh)

	for _, g := range w.gens {
		z.u64(g.Sent.Value())
	}
	// The adversary's reorder point: the remaining choice budget decides
	// future sites, and each held frame with its remaining displacement
	// decides future deliveries (its flush backstop is already in the
	// pending-event hash).
	if w.reorder != nil {
		z.int(w.reorder.Budget())
		z.int(w.reorder.Held())
		w.reorder.VisitHeld(func(pid uint64, left int) {
			z.u64(pid)
			z.int(left)
		})
	}
	// The transport: congestion machine, reassembly state, resequencer
	// regime — all of it steers future sends and ACKs.
	if w.snd != nil {
		w.snd.VisitState(z.u64)
		w.tcpRx.VisitState(z.u64)
	}
	// The progress clock is part of the state: two otherwise identical
	// states at different distances from the progress deadline have
	// different futures.
	z.u64(uint64(int64(now) - int64(w.lastProgress)))
	return z.h
}
