// Package kernel assembles the simulated router: a CPU, two Ethernet
// interfaces, the IP forwarding path, and one of two kernel
// architectures —
//
//   - ModeUnmodified: the 4.2BSD-derived structure of §4.1/figure 6-2
//     (device-IPL receive handler → ipintrq → software-interrupt IP layer
//     → output ifqueue → transmit interrupt), which livelocks under
//     overload;
//   - ModePolled: the paper's modified kernel (§6.4), in which interrupts
//     only schedule a polling thread whose callbacks process packets to
//     completion under quotas, with optional queue-state feedback
//     (§6.6.1) and the CPU cycle limiter (§7).
//
// ModePolledCompat runs the unmodified code paths inside the modified
// kernel's framework, with a small penalty, reproducing the "modified
// kernel configured to act as if it were an unmodified system" arm of
// figure 6-3.
package kernel

import (
	"errors"
	"fmt"
	"os"

	"livelock/internal/fault"
	"livelock/internal/metrics"
	"livelock/internal/nic"
	"livelock/internal/prof"
	"livelock/internal/sim"
	"livelock/internal/trace"
)

// clockTick is the hardclock period (1 ms, as in the paper's timeout
// discussion).
const clockTick = sim.Millisecond

// envLockdep arms the runtime lock-discipline checker for every SMP
// router in the process (equivalent to Config.Lockdep = true). Read
// once at startup so a run's behavior cannot change mid-flight.
var envLockdep = os.Getenv("LIVELOCK_LOCKDEP") != ""

// Mode selects the kernel architecture.
type Mode int

// Kernel modes.
const (
	// ModeUnmodified is the stock 4.2BSD-style interrupt-driven path.
	ModeUnmodified Mode = iota
	// ModePolledCompat is the modified kernel emulating the unmodified
	// one (figure 6-3's "No polling" arm): same structure as
	// ModeUnmodified plus Costs.CompatPenalty per packet.
	ModePolledCompat
	// ModePolled is the paper's modified kernel.
	ModePolled
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeUnmodified:
		return "unmodified"
	case ModePolledCompat:
		return "polled-compat"
	case ModePolled:
		return "polled"
	default:
		return fmt.Sprintf("mode%d", int(m))
	}
}

// ParseMode is the inverse of Mode.String. It also accepts "compat",
// the command-line spelling of ModePolledCompat.
func ParseMode(s string) (Mode, error) {
	if s == "compat" {
		return ModePolledCompat, nil
	}
	for m := ModeUnmodified; m <= ModePolled; m++ {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("%w %q", ErrUnknownMode, s)
}

// Costs is the CPU cost model. The values are calibrated so the
// unmodified kernel reproduces the paper's anchor measurements on the
// DECstation 3000/300 testbed (§6.2):
//
//   - peak forwarding ≈ 4,700 pkts/s without screend
//     (per-packet path ≈ IntrDispatch + RxDevicePerPkt + SoftintDispatch
//   - IPForwardPerPkt + TxDevicePerPkt ≈ 213 µs);
//   - with screend, peak ≈ 2,000 pkts/s (adds ≈ 290 µs of user-mode and
//     wakeup cost) and complete livelock at ≈ 6,000 pkts/s (device +
//     softint work alone ≈ 165 µs/packet saturates the CPU);
//   - without screend, livelock extrapolates to slightly below the
//     14,880 pkts/s Ethernet maximum (fully batched device-level work
//     ≈ 60-67 µs/packet).
//
// All values are simulated CPU time; on the 150 MHz Alpha 21064 one
// microsecond is 150 cycles.
type Costs struct {
	// IntrDispatch is the cost of taking one interrupt (mode switch,
	// vectoring, prologue/epilogue). Paid once per interrupt, so
	// batching amortizes it across a burst (§4.1).
	IntrDispatch sim.Duration
	// RxDevicePerPkt is the device-IPL work per received packet in the
	// unmodified kernel: link-level processing, buffer management, and
	// the ipintrq enqueue.
	RxDevicePerPkt sim.Duration
	// SoftintDispatch is the cost of raising and entering the network
	// software interrupt (paid once per batch).
	SoftintDispatch sim.Duration
	// IPForwardPerPkt is the SPLNET work per packet: ipintrq dequeue,
	// ip_input, the forwarding decision, ip_output and the output-queue
	// enqueue plus transmit start.
	IPForwardPerPkt sim.Duration
	// TxDevicePerPkt is the device-IPL work to reclaim one transmit
	// descriptor and refill the transmitter.
	TxDevicePerPkt sim.Duration

	// ScreendWakeup is the scheduler cost of waking the screend process
	// (context switch and select return), paid when it transitions from
	// sleeping.
	ScreendWakeup sim.Duration
	// ScreendRecvPerPkt is the per-packet receive system call
	// (copyout, syscall overhead) — screend "does one system call per
	// packet" (§6.2).
	ScreendRecvPerPkt sim.Duration
	// ScreendFilterPerPkt is the fixed user-mode filter overhead per
	// packet (parse, bookkeeping).
	ScreendFilterPerPkt sim.Duration
	// ScreendRuleCost is the additional cost per configured rule, so
	// longer rule lists lower the MLFRR — §5.4: "inefficient code tends
	// to exacerbate receive livelock, by lowering the MLFRR of the
	// system".
	ScreendRuleCost sim.Duration
	// ScreendSendPerPkt is the send system call that re-injects an
	// accepted packet, including the kernel-side ip_output work.
	ScreendSendPerPkt sim.Duration

	// PollWakeup is the cost of scheduling and switching to the polling
	// thread in the modified kernel.
	PollWakeup sim.Duration
	// PollRound is the per-sweep cost of checking the registered
	// devices' service-needed flags. Small quotas amortize this worse
	// (§6.6.2).
	PollRound sim.Duration
	// PolledRxPerPkt is the modified kernel's per-packet receive path:
	// ring extraction plus IP forwarding to the output queue, processed
	// to completion with no intermediate queue (saves the ipintrq
	// operations and softint dispatch relative to the unmodified path).
	PolledRxPerPkt sim.Duration
	// PolledRxToScreendPerPkt is the same but terminating at the
	// screend queue (ip_input plus enqueue; no forwarding decision).
	PolledRxToScreendPerPkt sim.Duration
	// PolledRxLocalPerPkt is the polled receive path terminating in
	// local delivery (ip_input plus socket-buffer enqueue, or the ICMP
	// echo turnaround).
	PolledRxLocalPerPkt sim.Duration
	// PolledTxPerPkt is the polled transmit-reclaim cost per packet.
	PolledTxPerPkt sim.Duration
	// CompatPenalty is added to RxDevicePerPkt and IPForwardPerPkt in
	// ModePolledCompat — the modified kernel emulating the old path
	// "performs slightly worse" (§6.5: longer code paths, different
	// instruction-cache behaviour).
	CompatPenalty sim.Duration

	// FastPathSavings is the per-packet CPU saved by a forwarding-cache
	// hit when Config.FastPath is on (§5.4: fast-path designs postpone
	// livelock by lowering per-packet cost).
	FastPathSavings sim.Duration

	// LockOp is the hold time of one locked shared-queue operation
	// (enqueue or dequeue under a FairLock) on SMP configurations. The
	// per-packet path cost is unchanged: the locked portion is carved
	// out of the existing per-packet constants, so a 1-CPU run and an
	// uncontended N-CPU run spend identical cycles per packet — what an
	// N-CPU run adds is spin time, charged to prov.CenterLock.
	LockOp sim.Duration

	// ClockTickCost is the hardclock handler cost, every clock tick.
	ClockTickCost sim.Duration
	// HousekeepPerTick is periodic system housekeeping run at thread
	// level; with ClockTickCost it produces the ≈6% baseline system
	// overhead (§7: an unloaded system gives the user process ≈94%).
	HousekeepPerTick sim.Duration
}

// ModernCosts returns a cost profile roughly 100× faster than the 1996
// calibration — the scale of a commodity server three decades on. Used
// with a faster LinkBitRate it demonstrates that the livelock shapes
// are architectural: every curve reproduces at proportionally higher
// rates (this is why the paper's fix became Linux NAPI).
func ModernCosts() Costs {
	c := DefaultCosts()
	for _, d := range c.fields() {
		*d = (*d + 50) / 100
	}
	return c
}

// costNames names the fields of Costs in declaration order, the order
// in which fields returns them.
var costNames = [...]string{
	"IntrDispatch", "RxDevicePerPkt", "SoftintDispatch", "IPForwardPerPkt", "TxDevicePerPkt",
	"ScreendWakeup", "ScreendRecvPerPkt", "ScreendFilterPerPkt", "ScreendRuleCost", "ScreendSendPerPkt",
	"PollWakeup", "PollRound", "PolledRxPerPkt", "PolledRxToScreendPerPkt", "PolledRxLocalPerPkt",
	"PolledTxPerPkt", "CompatPenalty", "FastPathSavings", "LockOp",
	"ClockTickCost", "HousekeepPerTick",
}

// fields returns every field of c, in costNames' order. An array of
// pointers, so that NewRouter's Validate allocates nothing for it.
func (c *Costs) fields() [len(costNames)]*sim.Duration {
	return [...]*sim.Duration{
		&c.IntrDispatch, &c.RxDevicePerPkt, &c.SoftintDispatch, &c.IPForwardPerPkt, &c.TxDevicePerPkt,
		&c.ScreendWakeup, &c.ScreendRecvPerPkt, &c.ScreendFilterPerPkt, &c.ScreendRuleCost, &c.ScreendSendPerPkt,
		&c.PollWakeup, &c.PollRound, &c.PolledRxPerPkt, &c.PolledRxToScreendPerPkt, &c.PolledRxLocalPerPkt,
		&c.PolledTxPerPkt, &c.CompatPenalty, &c.FastPathSavings, &c.LockOp,
		&c.ClockTickCost, &c.HousekeepPerTick,
	}
}

// DefaultCosts returns the calibrated cost model described above.
func DefaultCosts() Costs {
	const us = sim.Microsecond
	return Costs{
		IntrDispatch:    10 * us,
		RxDevicePerPkt:  60 * us,
		SoftintDispatch: 10 * us,
		IPForwardPerPkt: 90 * us,
		TxDevicePerPkt:  35 * us,

		ScreendWakeup:       50 * us,
		ScreendRecvPerPkt:   120 * us,
		ScreendFilterPerPkt: 36 * us,
		ScreendRuleCost:     4 * us,
		ScreendSendPerPkt:   120 * us,

		PollWakeup:              30 * us,
		PollRound:               10 * us,
		PolledRxPerPkt:          150 * us,
		PolledRxToScreendPerPkt: 130 * us,
		PolledRxLocalPerPkt:     110 * us,
		PolledTxPerPkt:          40 * us,
		CompatPenalty:           5 * us,
		FastPathSavings:         30 * us,
		LockOp:                  3 * us,

		ClockTickCost:    30 * us,
		HousekeepPerTick: 30 * us,
	}
}

// Config assembles a router.
type Config struct {
	// Mode selects the kernel architecture.
	Mode Mode
	// Screend inserts the user-mode screening process into the
	// forwarding path (one syscall per packet).
	Screend bool
	// ScreendRules is the number of filter rules evaluated per packet;
	// the experiments use a configuration that accepts all packets.
	ScreendRules int

	// Quota is the per-callback packet quota in ModePolled (§6.6.2);
	// zero or negative means no quota (figure 6-3/6-5 "quota =
	// infinity").
	Quota int
	// Feedback enables screend queue-state feedback (§6.6.1).
	Feedback bool
	// FeedbackTimeout re-enables input after this long without consumer
	// progress, in case the screening process is hung (paper: one clock
	// tick ≈ 1 ms). Zero selects the default; a negative value disables
	// the timeout entirely (hang-recovery off).
	FeedbackTimeout sim.Duration
	// CycleLimitThreshold, if in (0, 1), enables the §7 cycle limiter
	// with that fraction of each period available to packet processing.
	// 0 or 1 disables limiting.
	CycleLimitThreshold float64
	// CycleLimitPeriod is the accounting period (paper: 10 ms).
	CycleLimitPeriod sim.Duration

	// UserProcess adds a compute-bound user process (for §7's
	// measurements of user-mode progress).
	UserProcess bool

	// FastPath enables a destination-keyed forwarding cache: cache
	// hits skip the route and ARP lookups, lowering per-packet cost by
	// Costs.FastPathSavings — §5.4's "aggressive optimization ...
	// help[s] to postpone arrival of livelock".
	FastPath bool

	// ClockedPollInterval, if > 0 in ModePolled, disables device
	// interrupts entirely and wakes the polling thread on a fixed
	// period instead — the "clocked interrupts" design of Traw & Smith
	// discussed in §8. The paper's critique ("it is hard to choose the
	// proper polling frequency: too high, and the system spends all its
	// time polling; too low, and the receive latency soars") is
	// reproducible by sweeping this interval.
	ClockedPollInterval sim.Duration

	// DisableBatching makes the unmodified kernel's receive handler
	// return after every packet instead of draining the ring, paying
	// the interrupt dispatch cost per packet. Ablation for §4.2's
	// observation that "batching can shift the livelock point but
	// cannot, by itself, prevent livelock."
	DisableBatching bool

	// InputNICs is the number of input interfaces, each with its own
	// source wire (>1 exercises round-robin fairness). Default 1.
	InputNICs int

	// CPUs is the number of simulated processors (default 1). At 1 the
	// router is byte-identical to the pre-SMP uniprocessor model. Above
	// 1, receive work is steered across cores by per-queue NIC
	// interrupts (see NIC.RxQueues) and the shared kernel queues are
	// guarded by FairLocks; CPU 0 remains the boot processor running
	// the clock, housekeeping, screend, and user processes.
	CPUs int

	// Lockdep, on SMP configurations, arms the runtime lock-discipline
	// checker (cpu.Lockdep): every touch of lock-guarded kernel state
	// asserts the declared FairLock's critical section is the one
	// executing, and nested acquisitions feed a lock-order graph with
	// cycle detection. The checker observes simulated time but never
	// charges it, so figures and fingerprints are unchanged; it is for
	// tests and the explore plane. LIVELOCK_LOCKDEP=1 in the
	// environment arms it too. See DESIGN.md §13.
	Lockdep bool

	// IRQCPUs, in ModePolled with CPUs > 1, dedicates the last IRQCPUs
	// cores to interrupt handling and leaves the remaining CPUs-IRQCPUs
	// cores running polling threads — the "interrupt-isolated cores"
	// arrangement. Must be < CPUs; zero means no isolation (every core
	// runs a poller and takes its share of interrupts).
	IRQCPUs int

	// FlowSpread, when > 1, makes each generator cycle its UDP source
	// port over FlowSpread values so the NIC's RSS hash spreads the load
	// across receive queues. Defaults to 4×CPUs when CPUs > 1, else 1
	// (single flow, byte-identical to the pre-SMP workload).
	FlowSpread int

	// Queue limits.
	IPIntrQLimit  int // ipintrq (BSD default IFQ_MAXLEN = 50)
	OutQueueLimit int // output ifqueue
	ScreendQLimit int // screend input queue (paper: 32)
	ScreendQHigh  int // inhibit input at this occupancy (paper: 75% = 24)
	ScreendQLow   int // re-enable at this occupancy (paper: 25% = 8)

	// NIC ring geometry.
	NIC nic.Config

	// LinkBitRate is the Ethernet speed of every attached segment in
	// bits/second (default 10 Mb/s, the paper's testbed). Raising it —
	// together with a faster Costs profile — shows that livelock is
	// architectural, not an artifact of 1996 hardware.
	LinkBitRate int64

	// PoolBuffers sizes the packet buffer pool.
	PoolBuffers int

	// Fault configures the deterministic fault-injection plane (wire
	// drop/corrupt/truncate/duplicate/delay, NIC stall/reset/lost
	// interrupts, screend pause windows). The zero value disables it.
	// Fault draws come from a stream derived from Seed and Fault.Seed,
	// independent of the workload RNG, so a hostile run offers exactly
	// the same load as a clean one.
	Fault fault.Config

	// Seed seeds the simulation's RNG.
	Seed uint64

	// Costs is the CPU cost model. An all-zero Costs is replaced by
	// DefaultCosts; a partly set one is used exactly as given, its zero
	// fields included.
	Costs Costs

	// Trace, if non-nil, receives a packet-lifecycle event at every
	// decision point (ring accept/drop, queue enqueue/drop, forward,
	// screen, transmit). Tracing is for short diagnostic runs.
	Trace *trace.Tracer

	// Profile, if non-nil, attaches the cycle-attribution profiler:
	// every packet accepted into an rx ring gets a provenance record,
	// every cycle spent on it is invested into that record, and drops
	// classify the investment as wasted work. Strictly observational —
	// enabling it does not perturb the simulated schedule.
	Profile *prof.Profile

	// Metrics, if non-nil, receives the router's full instrument schema
	// at construction (CPU utilization by class and IPL, NIC and queue
	// counters and depths, poller/feedback/screend/monitor activity);
	// attach a metrics.Sampler to record a timeline. The schema is the
	// same in every mode — absent subsystems register constant-zero
	// columns — so timelines line up column-for-column across kernels.
	Metrics *metrics.Registry
}

// DefaultConfig returns the testbed configuration used throughout the
// experiments (unmodified kernel, no screend).
func DefaultConfig() Config {
	return Config{
		Mode:                ModeUnmodified,
		Quota:               5,
		FeedbackTimeout:     sim.Millisecond,
		CycleLimitPeriod:    10 * sim.Millisecond,
		CycleLimitThreshold: 0,
		InputNICs:           1,
		IPIntrQLimit:        50,
		OutQueueLimit:       50,
		ScreendQLimit:       32,
		ScreendQHigh:        24,
		ScreendQLow:         8,
		NIC:                 nic.DefaultConfig(),
		PoolBuffers:         4096,
		Seed:                1,
		Costs:               DefaultCosts(),
	}
}

// Configuration errors reported by Config.Validate.
var (
	// ErrUnknownMode rejects a Mode outside the three kernel modes.
	ErrUnknownMode = errors.New("kernel: unknown mode")
	// ErrUserProcessSMP rejects UserProcess with more than one CPU. The
	// compute-bound process and the cycle limit that protects it are
	// modelled and pinned on the uniprocessor only (figure 7-1 reports
	// its share of the one CPU), so NewRouter refuses it on SMP rather
	// than run an unvalidated configuration.
	ErrUserProcessSMP = errors.New("kernel: Config.UserProcess requires CPUs == 1")
	// ErrInvalidConfig rejects a field value the router cannot be built
	// with: a negative size, rate, period or cost, a fast-path saving
	// larger than the cost it is taken from, or screend-queue watermarks
	// the feedback mechanism cannot use. The wrapping error names the
	// field.
	ErrInvalidConfig = errors.New("kernel: invalid config")
)

// Validate reports why NewRouter cannot build c, or nil if it can. Zero
// fields take their defaults first, and a field is checked only where
// the configuration uses it: a value with a meaning today (a negative
// Quota or FeedbackTimeout, a cycle-limit threshold outside (0,1)) is
// accepted. The Costs fields are the exception: every one must be
// non-negative, used or not.
func (c Config) Validate() error {
	if c.Mode < ModeUnmodified || c.Mode > ModePolled {
		return fmt.Errorf("%w %d", ErrUnknownMode, int(c.Mode))
	}
	if c.UserProcess && c.CPUs > 1 {
		return ErrUserProcessSMP
	}
	d := c.withDefaults()
	positive := []struct {
		name string
		v    int64
		used bool
	}{
		{"InputNICs", int64(d.InputNICs), true},
		{"IPIntrQLimit", int64(d.IPIntrQLimit), d.Mode != ModePolled},
		{"OutQueueLimit", int64(d.OutQueueLimit), true},
		{"ScreendQLimit", int64(d.ScreendQLimit), d.Screend},
		{"NIC.RxRing", int64(d.NIC.RxRing), true},
		{"NIC.TxRing", int64(d.NIC.TxRing), true},
		{"LinkBitRate", d.LinkBitRate, true},
		{"PoolBuffers", int64(d.PoolBuffers), true},
		{"CycleLimitPeriod", int64(d.CycleLimitPeriod),
			d.Mode == ModePolled && d.CycleLimitThreshold > 0 && d.CycleLimitThreshold < 1},
	}
	for _, f := range positive {
		if f.used && f.v <= 0 {
			return fmt.Errorf("%w: %s = %d, want > 0", ErrInvalidConfig, f.name, f.v)
		}
	}
	if d.Mode == ModePolled && d.Screend && d.Feedback &&
		(d.ScreendQLow < 0 || d.ScreendQHigh <= d.ScreendQLow || d.ScreendQHigh > d.ScreendQLimit) {
		return fmt.Errorf("%w: ScreendQLow %d, ScreendQHigh %d: want 0 <= low < high <= ScreendQLimit %d",
			ErrInvalidConfig, d.ScreendQLow, d.ScreendQHigh, d.ScreendQLimit)
	}
	// A work item may not cost negative time (cpu.Task panics on one).
	for i, v := range d.Costs.fields() {
		if *v < 0 {
			return fmt.Errorf("%w: Costs.%s = %v, want >= 0", ErrInvalidConfig, costNames[i], *v)
		}
	}
	// A fast-path hit subtracts FastPathSavings from the forwarding
	// cost: the polled kernel's receive-and-forward item, or the
	// unmodified kernel's ip_input item.
	if d.FastPath {
		name, fwd := "PolledRxPerPkt", d.Costs.PolledRxPerPkt
		if d.Mode != ModePolled {
			name, fwd = "IPForwardPerPkt", d.Costs.IPForwardPerPkt
			if d.Mode == ModePolledCompat {
				name, fwd = "IPForwardPerPkt + CompatPenalty", fwd+d.Costs.CompatPenalty
			}
		}
		if d.Costs.FastPathSavings > fwd {
			return fmt.Errorf("%w: Costs.FastPathSavings = %v exceeds Costs.%s = %v",
				ErrInvalidConfig, d.Costs.FastPathSavings, name, fwd)
		}
	}
	return nil
}

// withDefaults normalizes a config.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.InputNICs == 0 {
		c.InputNICs = d.InputNICs
	}
	if c.CPUs < 1 {
		c.CPUs = 1
	}
	if c.IRQCPUs < 0 {
		c.IRQCPUs = 0
	}
	if c.IRQCPUs >= c.CPUs {
		c.IRQCPUs = c.CPUs - 1
	}
	if c.CPUs > 1 {
		// SMP defaults: one RSS queue per core on each input NIC, and
		// enough flows to populate them. Explicit settings win.
		if c.NIC.RxQueues == 0 {
			c.NIC.RxQueues = c.CPUs
		}
		if c.FlowSpread == 0 {
			c.FlowSpread = 4 * c.CPUs
		}
	}
	if c.IPIntrQLimit == 0 {
		c.IPIntrQLimit = d.IPIntrQLimit
	}
	if c.OutQueueLimit == 0 {
		c.OutQueueLimit = d.OutQueueLimit
	}
	if c.ScreendQLimit == 0 {
		c.ScreendQLimit = d.ScreendQLimit
	}
	if c.ScreendQHigh == 0 {
		c.ScreendQHigh = d.ScreendQHigh
	}
	if c.ScreendQLow == 0 {
		c.ScreendQLow = d.ScreendQLow
	}
	if c.NIC.RxRing == 0 {
		c.NIC.RxRing = d.NIC.RxRing
	}
	if c.NIC.TxRing == 0 {
		c.NIC.TxRing = d.NIC.TxRing
	}
	if c.LinkBitRate == 0 {
		c.LinkBitRate = nic.EthernetBitRate
	}
	if c.CycleLimitPeriod == 0 {
		c.CycleLimitPeriod = d.CycleLimitPeriod
	}
	if c.FeedbackTimeout == 0 {
		c.FeedbackTimeout = d.FeedbackTimeout
	}
	if c.PoolBuffers == 0 {
		c.PoolBuffers = d.PoolBuffers
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.Costs == (Costs{}) {
		c.Costs = d.Costs
	}
	return c
}
