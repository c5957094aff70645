// Package fault is the router's deterministic fault-injection plane:
// seeded injectors at three layers of the simulated system —
//
//   - wire: per-frame drop, truncation, byte corruption, duplication,
//     and extra delay (reordering), applied by a nic.Wire delivery tap;
//   - device: periodic NIC receive stall/reset windows and lost receive
//     interrupts;
//   - process: periodic screend pause/resume windows, the §6.6.1
//     "screend program is hung" failure the feedback timeout guards
//     against.
//
// All randomness comes from the plane's own sim.RNG stream, derived
// from (but independent of) the router seed, so enabling faults never
// perturbs workload arrival draws: a hostile run and a clean run offer
// byte-identical load. Every injected fault increments a counter, and
// every injected loss lands in a distinct terminal bucket of the
// kernel's packet-conservation ledger (Router.Audit), which is how the
// tests prove no frame is ever silently unaccounted for.
package fault

import (
	"livelock/internal/metrics"
	"livelock/internal/netstack"
	"livelock/internal/nic"
	"livelock/internal/prov"
	"livelock/internal/sim"
	"livelock/internal/stats"
)

// Config enables and parameterizes the fault injectors. The zero value
// disables everything (Enabled reports false) and costs nothing.
type Config struct {
	// Wire layer: per-frame fault probabilities in [0, 1], applied by
	// the tap in the fixed order drop → truncate → corrupt → duplicate
	// → delay. Truncation cuts the frame at a uniform point inside the
	// payload; corruption flips one uniformly chosen bit; duplication
	// delivers an extra copy (allocated from the router's buffer pool,
	// so duplicates obey the same mbuf accounting as real frames);
	// delay holds the frame for a uniform (0, MaxDelay] before
	// delivery, reordering it past later arrivals.
	DropProb     float64
	TruncateProb float64
	CorruptProb  float64
	DupProb      float64
	DelayProb    float64
	// MaxDelay bounds the extra per-frame delay. Default 1ms.
	MaxDelay sim.Duration

	// Reorder injector (wire layer, after the delay check in tap
	// order): each frame is held with probability ReorderProb until
	// ReorderSpan later frames pass it on the same wire, then
	// delivered — displaced but never lost. ReorderMode picks bounded
	// displacement (FIFO re-entry) or the multi-path swap model (LIFO
	// batch reversal); ReorderFlush bounds the hold so tail frames with
	// no successors still arrive.
	ReorderProb  float64
	ReorderSpan  int          // default 3 (enough displacement for three dupacks)
	ReorderMode  ReorderMode  // displace | swap
	ReorderFlush sim.Duration // default 1ms

	// Device layer. StallPeriod/StallDuration open a receive stall
	// window of StallDuration every StallPeriod on every attached NIC:
	// arriving frames are lost at the device. Both must be positive to
	// enable stalls; the duration is clamped below the period.
	StallPeriod   sim.Duration
	StallDuration sim.Duration
	// ResetOnStall additionally discards the rx-ring contents when a
	// stall window opens (a device reset rather than a wedge).
	ResetOnStall bool
	// IntrLossProb is the probability that a receive-interrupt
	// assertion is silently lost. The ring is untouched, so a later
	// arrival retries — lost interrupts add latency, not wedges.
	IntrLossProb float64

	// Process layer: hang the screend process for ScreendPauseDuration
	// every ScreendPausePeriod (both must be positive; no-op without
	// screend). This reproduces §6.4's blocked-user-process scenario:
	// without queue-state feedback the screend queue overflows, with
	// feedback the kernel inhibits input until the process resumes.
	ScreendPausePeriod   sim.Duration
	ScreendPauseDuration sim.Duration

	// Seed perturbs the fault RNG stream; zero derives the stream from
	// the router seed alone. Two runs with identical Config, router
	// seed, and workload produce identical fault sequences.
	Seed uint64
}

// Enabled reports whether any injector is configured.
func (c Config) Enabled() bool {
	return c.DropProb > 0 || c.TruncateProb > 0 || c.CorruptProb > 0 ||
		c.DupProb > 0 || c.DelayProb > 0 || c.ReorderProb > 0 ||
		(c.StallPeriod > 0 && c.StallDuration > 0) ||
		c.IntrLossProb > 0 ||
		(c.ScreendPausePeriod > 0 && c.ScreendPauseDuration > 0)
}

// withDefaults normalizes a config: MaxDelay defaults to 1ms, and
// window durations are clamped below their periods so windows cannot
// overlap their own successors.
func (c Config) withDefaults() Config {
	if c.MaxDelay <= 0 {
		c.MaxDelay = sim.Millisecond
	}
	if c.ReorderSpan <= 0 {
		c.ReorderSpan = 3
	}
	if c.ReorderFlush <= 0 {
		c.ReorderFlush = sim.Millisecond
	}
	if c.StallPeriod > 0 && c.StallDuration >= c.StallPeriod {
		c.StallDuration = c.StallPeriod - 1
	}
	if c.ScreendPausePeriod > 0 && c.ScreendPauseDuration >= c.ScreendPausePeriod {
		c.ScreendPauseDuration = c.ScreendPausePeriod - 1
	}
	return c
}

// metricNames is the fault column schema in registration order.
var metricNames = [...]string{
	"fault.wire.drops",
	"fault.wire.truncated",
	"fault.wire.corrupted",
	"fault.wire.duplicated",
	"fault.wire.delayed",
	"fault.wire.reordered",
	"fault.nic.stalldrops",
	"fault.nic.resetdrops",
	"fault.nic.lostintrs",
	"fault.screend.pauses",
}

// Plane owns the injectors and their counters for one router.
type Plane struct {
	eng  *sim.Engine
	rng  *sim.RNG
	pool *netstack.Pool
	cfg  Config
	nics []*nic.NIC

	// Wire-layer counters, one per fault kind. WireDrops is a terminal
	// conservation bucket; Truncated/Corrupted mark frames that
	// continue (and are charged wherever the damaged frame is later
	// rejected); Duplicated counts injected extra frames, a *source* in
	// the conservation ledger; Delayed counts held frames.
	WireDrops  *stats.Counter
	Truncated  *stats.Counter
	Corrupted  *stats.Counter
	Duplicated *stats.Counter
	Delayed    *stats.Counter
	// Reordered counts frames the reorder injector held out of order;
	// every one is eventually delivered (displaced, never dropped).
	Reordered *stats.Counter

	// ResetDrops counts frames discarded from rx rings by ResetOnStall
	// windows (per-NIC stall/lost-interrupt counts live on the NICs).
	ResetDrops *stats.Counter
	// ScreendPauses counts process-layer pause windows opened.
	ScreendPauses *stats.Counter

	// OnDrop, if non-nil, observes each frame the plane destroys (before
	// release) with its provenance drop reason, so wire-level losses
	// land in the same drop-classification tables as kernel drops.
	OnDrop func(*netstack.Packet, prov.DropReason)

	nextDupID uint64
}

// NewPlane returns a fault plane drawing from a stream derived from the
// plane seed and the router seed. pool supplies buffers for injected
// duplicates; duplication is skipped (not counted) when it is empty.
func NewPlane(eng *sim.Engine, pool *netstack.Pool, cfg Config, routerSeed uint64) *Plane {
	cfg = cfg.withDefaults()
	// The multiplier decorrelates the fault stream from the router RNG
	// (which is seeded with routerSeed directly); the constant keeps
	// the stream away from the xorshift zero fixed point.
	seed := cfg.Seed ^ (routerSeed * 0x9E3779B97F4A7C15) ^ 0x0FA0175EED0F4170
	return &Plane{
		eng:           eng,
		rng:           sim.NewRNG(seed),
		pool:          pool,
		cfg:           cfg,
		WireDrops:     stats.NewCounter("fault.wire.drops"),
		Truncated:     stats.NewCounter("fault.wire.truncated"),
		Corrupted:     stats.NewCounter("fault.wire.corrupted"),
		Duplicated:    stats.NewCounter("fault.wire.duplicated"),
		Delayed:       stats.NewCounter("fault.wire.delayed"),
		Reordered:     stats.NewCounter("fault.wire.reordered"),
		ResetDrops:    stats.NewCounter("fault.nic.resetdrops"),
		ScreendPauses: stats.NewCounter("fault.screend.pauses"),
	}
}

// AttachWire installs the wire-layer injector on w. With ReorderProb
// configured the wire gets its own hold state, so displacement is
// measured against frames sharing the wire, never across links.
func (pl *Plane) AttachWire(w *nic.Wire) {
	var rs *reorderHold
	if c := &pl.cfg; c.ReorderProb > 0 {
		rs = &reorderHold{
			eng: pl.eng, w: w, span: c.ReorderSpan, flush: c.ReorderFlush,
			swap:  c.ReorderMode == ReorderSwap,
			slots: make([]reorderSlot, maxReorderHeld),
		}
	}
	w.SetTap(func(p *netstack.Packet) { pl.tapFrame(w, rs, p) })
}

// tapFrame owns every frame finishing propagation on a tapped wire and
// disposes of it exactly once. Fault order is fixed (drop, truncate,
// corrupt, duplicate, delay, reorder) and each check draws from the RNG
// only when its probability is non-zero, so a given config always
// consumes the same stream.
func (pl *Plane) tapFrame(w *nic.Wire, rs *reorderHold, p *netstack.Packet) {
	c := &pl.cfg
	if c.DropProb > 0 && pl.rng.Float64() < c.DropProb {
		pl.WireDrops.Inc()
		if pl.OnDrop != nil {
			pl.OnDrop(p, prov.ReasonFaultWireDrop)
		}
		w.DropTapped(p)
		return
	}
	if c.TruncateProb > 0 && p.Len() > netstack.EthHeaderLen && pl.rng.Float64() < c.TruncateProb {
		cut := netstack.EthHeaderLen + pl.rng.Intn(p.Len()-netstack.EthHeaderLen)
		p.Data = p.Data[:cut]
		pl.Truncated.Inc()
	}
	if c.CorruptProb > 0 && p.Len() > 0 && pl.rng.Float64() < c.CorruptProb {
		i := pl.rng.Intn(p.Len())
		p.Data[i] ^= byte(1) << uint(pl.rng.Intn(8))
		pl.Corrupted.Inc()
	}
	if c.DupProb > 0 && pl.rng.Float64() < c.DupProb {
		if dup := pl.pool.Get(p.Len()); dup != nil {
			copy(dup.Data, p.Data)
			pl.nextDupID++
			dup.ID = pl.nextDupID | 1<<62
			dup.Born = p.Born
			pl.Duplicated.Inc()
			w.DeliverInjected(dup)
		}
	}
	if c.DelayProb > 0 && pl.rng.Float64() < c.DelayProb {
		d := sim.Duration(1 + pl.rng.Intn(int(c.MaxDelay)))
		pl.Delayed.Inc()
		pl.eng.AfterCall(d, deliverDelayed, w, p)
		return
	}
	if rs != nil {
		if rs.offer(p, pl.rng.Float64() < c.ReorderProb) {
			pl.Reordered.Inc()
		}
		return
	}
	w.Deliver(p)
}

// deliverDelayed hands a held frame to its wire's receiver
// (sim.Callback shape, so per-frame delay injection allocates nothing).
func deliverDelayed(a, b any) { a.(*nic.Wire).Deliver(b.(*netstack.Packet)) }

// AttachNIC registers an input NIC for device-layer faults: it joins
// the stall-window set and, with IntrLossProb configured, gets the
// interrupt-loss hook.
func (pl *Plane) AttachNIC(n *nic.NIC) {
	pl.nics = append(pl.nics, n)
	if p := pl.cfg.IntrLossProb; p > 0 {
		n.SetRxIntrLoss(func() bool { return pl.rng.Float64() < p })
	}
}

// Start schedules the periodic fault windows. hangScreend/resumeScreend
// drive the process-layer injector and may be nil when no screening
// process exists.
func (pl *Plane) Start(hangScreend, resumeScreend func()) {
	c := &pl.cfg
	if c.StallPeriod > 0 && c.StallDuration > 0 {
		pl.eng.AfterCall(c.StallPeriod, windowOpen,
			&window{eng: pl.eng, set: pl.stall, dur: c.StallDuration, period: c.StallPeriod}, nil)
	}
	if c.ScreendPausePeriod > 0 && c.ScreendPauseDuration > 0 &&
		hangScreend != nil && resumeScreend != nil {
		pause := func(on bool) {
			if !on {
				resumeScreend()
				return
			}
			pl.ScreendPauses.Inc()
			hangScreend()
		}
		pl.eng.AfterCall(c.ScreendPausePeriod, windowOpen,
			&window{eng: pl.eng, set: pause, dur: c.ScreendPauseDuration, period: c.ScreendPausePeriod}, nil)
	}
}

// stall opens or closes a receive-stall window on every attached NIC,
// discarding each ring as its window opens under ResetOnStall.
func (pl *Plane) stall(on bool) {
	for _, n := range pl.nics {
		n.SetRxStalled(on)
		if on && pl.cfg.ResetOnStall {
			pl.ResetDrops.Add(uint64(n.ResetRx()))
		}
	}
}

// window is one fault window: set(true) as it opens, set(false) dur
// later. The plane's windows reopen every period; an adversary probe
// opens once, and only if its choice point injects.
type window struct {
	eng    *sim.Engine
	set    func(open bool)
	dur    sim.Duration
	period sim.Duration // > 0: reopen every period
	choice *choice      // non-nil: an adversary probe, consulted as it opens
}

// windowOpen opens w, schedules its close and then, for a periodic
// window, its next opening. It has the sim.Callback shape, so a long
// hostile run's window churn allocates nothing.
func windowOpen(a, _ any) {
	w := a.(*window)
	if w.choice != nil && !w.choice.inject() {
		return
	}
	w.set(true)
	w.eng.AfterCall(w.dur, windowClose, w, nil)
	if w.period > 0 {
		w.eng.AfterCall(w.period, windowOpen, w, nil)
	}
}

// windowClose closes w (sim.Callback shape).
func windowClose(a, _ any) { a.(*window).set(false) }

// StallDrops sums frames lost to stall windows across attached NICs.
func (pl *Plane) StallDrops() uint64 {
	var t uint64
	for _, n := range pl.nics {
		t += n.StallDrops.Value()
	}
	return t
}

// LostIntrs sums suppressed receive-interrupt assertions across
// attached NICs.
func (pl *Plane) LostIntrs() uint64 {
	var t uint64
	for _, n := range pl.nics {
		t += n.LostRxIntrs.Value()
	}
	return t
}

// RegisterMetrics registers the plane's counters under metricNames, in
// that order. A nil plane (a router without faults) registers the same
// columns reading zero, keeping clean and hostile timelines
// column-compatible.
func (pl *Plane) RegisterMetrics(reg *metrics.Registry) {
	var sources [len(metricNames)]func() uint64
	if pl != nil {
		sources = [...]func() uint64{
			pl.WireDrops.Value, pl.Truncated.Value, pl.Corrupted.Value, pl.Duplicated.Value,
			pl.Delayed.Value, pl.Reordered.Value, pl.StallDrops, pl.ResetDrops.Value,
			pl.LostIntrs, pl.ScreendPauses.Value,
		}
	}
	for i, name := range metricNames {
		reg.CounterFunc(name, sources[i])
	}
}
