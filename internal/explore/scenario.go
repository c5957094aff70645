package explore

import (
	"fmt"

	"livelock/internal/kernel"
	"livelock/internal/nic"
	"livelock/internal/sim"
)

// Scenario is a small closed system to exhaust: a router
// configuration, a fixed-gap workload whose arrivals tie, and a set of
// armed fault choice points. Every field that shapes the state space
// is explicit so a committed counterexample stays replayable.
type Scenario struct {
	Name string
	Desc string

	// Config is the router configuration. InputNICs is overridden with
	// Sources; the stochastic fault plane, tracing, and metrics are
	// forced off (the adversary supplies faults deterministically).
	Config kernel.Config

	// Sources generators emit PacketsPerSource frames each at a fixed
	// Gap, all starting together so every wave ties.
	Sources          int
	PacketsPerSource int
	Gap              sim.Duration

	// TCP, if non-nil, attaches a bulk transfer to the scenario: a
	// receiver on the router and a sender on source 0, which then hosts
	// no generator — the transport's ACK clock replaces the fixed-gap
	// arrivals on that wire.
	TCP *TCPFlow

	// ReorderBudget arms the wire-reorder choice point on source 0's
	// wire: each of the first ReorderBudget frames becomes a two-way
	// choice — deliver in order, or hold until ReorderSpan later frames
	// pass or ReorderFlush elapses. Displaced frames are never lost, so
	// every branch must stay conservation-clean.
	ReorderBudget int
	ReorderSpan   int
	ReorderFlush  sim.Duration

	// IntrLossBudget arms the lost-receive-interrupt choice point on
	// every input NIC, bounding each to that many two-way choices.
	IntrLossBudget int

	// StallProbes schedules receive-stall choice points on the first
	// input NIC at the given instants, each stalling for StallDuration
	// when the adversary injects.
	StallProbes   []sim.Duration
	StallDuration sim.Duration

	// PauseProbes schedules screend-pause choice points at the given
	// instants, each hanging screend for PauseDuration when injected.
	PauseProbes   []sim.Duration
	PauseDuration sim.Duration

	// Horizon is when the adversary's windows are force-closed; Drain
	// is the additional time the system gets to reach quiescence.
	Horizon sim.Duration
	Drain   sim.Duration

	// ProgressWindow bounds how long frames may sit buffered with no
	// sink delivery before the progress invariant trips. It must
	// exceed the longest legitimate lull the scenario can produce
	// (fault windows, feedback timeouts, clock-tick recovery).
	ProgressWindow sim.Duration

	// MaxPendingEvents bounds the engine's pending-event population
	// during the run; MaxQuiescentEvents bounds it at quiescence
	// (perpetual self-rescheduling events only).
	MaxPendingEvents   int
	MaxQuiescentEvents int

	// Independent, if non-nil, is the sleep-set oracle: it reports
	// whether two same-instant events commute, letting the explorer
	// skip redundant orderings. It must be sound — claiming
	// independence for racing events hides schedules.
	Independent func(a, b string) bool
}

// TCPFlow configures a scenario's bulk TCP transfer (sender on source
// 0, receiver on the router).
type TCPFlow struct {
	Port       uint16
	TotalBytes uint64
	MSS        int
	Variant    kernel.TCPVariant
	MaxCwnd    int
	RTO        sim.Duration
	Resequence sim.Duration // receiver-side sorting hold (0 = off)
}

func (sc *Scenario) validate() error {
	switch {
	case sc.Name == "":
		return fmt.Errorf("explore: scenario has no name")
	case sc.Sources < 1:
		return fmt.Errorf("explore: %s: need at least one source", sc.Name)
	case sc.PacketsPerSource < 1:
		return fmt.Errorf("explore: %s: need at least one packet per source", sc.Name)
	case sc.Gap <= 0:
		return fmt.Errorf("explore: %s: non-positive arrival gap", sc.Name)
	case sc.Horizon <= 0 || sc.Drain <= 0:
		return fmt.Errorf("explore: %s: non-positive horizon or drain", sc.Name)
	case sc.ProgressWindow <= 0:
		return fmt.Errorf("explore: %s: non-positive progress window", sc.Name)
	case sc.MaxPendingEvents <= 0 || sc.MaxQuiescentEvents <= 0:
		return fmt.Errorf("explore: %s: non-positive pending-event bounds", sc.Name)
	case len(sc.StallProbes) > 0 && sc.StallDuration <= 0:
		return fmt.Errorf("explore: %s: stall probes without a stall duration", sc.Name)
	case len(sc.PauseProbes) > 0 && sc.PauseDuration <= 0:
		return fmt.Errorf("explore: %s: pause probes without a pause duration", sc.Name)
	case len(sc.PauseProbes) > 0 && !sc.Config.Screend:
		return fmt.Errorf("explore: %s: pause probes need a screend", sc.Name)
	case sc.TCP != nil && sc.TCP.TotalBytes == 0:
		return fmt.Errorf("explore: %s: TCP flow without a transfer size", sc.Name)
	case sc.ReorderBudget > 0 && (sc.ReorderSpan <= 0 || sc.ReorderFlush <= 0):
		return fmt.Errorf("explore: %s: reorder budget without a span and flush", sc.Name)
	}
	return nil
}

// Scenarios returns the built-in scenarios, freshly constructed (the
// caller may mutate them).
func Scenarios() []*Scenario {
	const (
		us = sim.Microsecond
		ms = sim.Millisecond
	)
	return []*Scenario{
		{
			Name: "intrloss",
			Desc: "3 tying sources into the polled kernel with lossy receive interrupts: " +
				"a lost final interrupt assertion must not strand the ring forever",
			Config: kernel.Config{
				Mode:          kernel.ModePolled,
				Quota:         4,
				NIC:           nic.Config{RxRing: 8, TxRing: 8},
				OutQueueLimit: 8,
				PoolBuffers:   64,
				Seed:          1,
			},
			Sources:            3,
			PacketsPerSource:   2,
			Gap:                190 * us,
			IntrLossBudget:     2,
			Horizon:            2 * ms,
			Drain:              10 * ms,
			ProgressWindow:     2500 * us,
			MaxPendingEvents:   64,
			MaxQuiescentEvents: 8,
			Independent:        EmitIndependent,
		},
		{
			Name: "feedback",
			Desc: "3 tying sources through screend with queue-state feedback, a tiny " +
				"transmit ring, and a pausable consumer: inhibition must always be " +
				"released and stranded output must eventually move",
			Config: kernel.Config{
				Mode:            kernel.ModePolled,
				Screend:         true,
				Feedback:        true,
				FeedbackTimeout: 1 * ms,
				Quota:           3,
				NIC:             nic.Config{RxRing: 8, TxRing: 2},
				OutQueueLimit:   8,
				ScreendQLimit:   8,
				ScreendQHigh:    5,
				ScreendQLow:     2,
				PoolBuffers:     64,
				Seed:            1,
			},
			Sources:            3,
			PacketsPerSource:   3,
			Gap:                170 * us,
			PauseProbes:        []sim.Duration{610 * us},
			PauseDuration:      1 * ms,
			Horizon:            4 * ms,
			Drain:              16 * ms,
			ProgressWindow:     4 * ms,
			MaxPendingEvents:   64,
			MaxQuiescentEvents: 8,
			Independent:        EmitIndependent,
		},
		{
			Name: "cyclelimit",
			Desc: "3 tying sources with a cycle limiter, a competing user process, lossy " +
				"interrupts, and a stall window: the limiter must inhibit exactly " +
				"within budget and every inhibition must end",
			Config: kernel.Config{
				Mode:                kernel.ModePolled,
				Quota:               2,
				UserProcess:         true,
				CycleLimitThreshold: 0.4,
				CycleLimitPeriod:    2 * ms,
				NIC:                 nic.Config{RxRing: 8, TxRing: 8},
				OutQueueLimit:       8,
				PoolBuffers:         64,
				Seed:                1,
			},
			Sources:            3,
			PacketsPerSource:   2,
			Gap:                150 * us,
			IntrLossBudget:     1,
			StallProbes:        []sim.Duration{430 * us},
			StallDuration:      700 * us,
			Horizon:            3 * ms,
			Drain:              15 * ms,
			ProgressWindow:     5 * ms,
			MaxPendingEvents:   64,
			MaxQuiescentEvents: 8,
			Independent:        EmitIndependent,
		},
		{
			Name: "smpcontend",
			Desc: "2 tying sources into a 2-core unmodified kernel, one receive queue " +
				"per NIC steered to opposite cores: every interleave of the two cores " +
				"contending on ipintrq must preserve the ledger and finish its work",
			Config: kernel.Config{
				Mode:          kernel.ModeUnmodified,
				CPUs:          2,
				FlowSpread:    1, // single flow; RSS is idle with one queue
				NIC:           nic.Config{RxRing: 8, TxRing: 8, RxQueues: 1},
				IPIntrQLimit:  8,
				OutQueueLimit: 8,
				PoolBuffers:   64,
				Seed:          1,
			},
			Sources:            2,
			PacketsPerSource:   3,
			Gap:                150 * us,
			Horizon:            2 * ms,
			Drain:              10 * ms,
			ProgressWindow:     3 * ms,
			MaxPendingEvents:   64,
			MaxQuiescentEvents: 8,
			Independent:        EmitIndependent,
		},
		{
			Name: "lockorder",
			Desc: "2 tying sources into a 2-core unmodified kernel with screend, so " +
				"every schedule nests ipintrq work inside net-lock sections and a " +
				"pausable consumer stalls mid-chain: the lockdep invariant must see " +
				"no guarded access outside its critical section and no acquisition " +
				"order cycle on any interleave",
			Config: kernel.Config{
				Mode:          kernel.ModeUnmodified,
				CPUs:          2,
				Screend:       true,
				FlowSpread:    1, // single flow; RSS is idle with one queue
				NIC:           nic.Config{RxRing: 8, TxRing: 8, RxQueues: 1},
				IPIntrQLimit:  8,
				OutQueueLimit: 8,
				ScreendQLimit: 8,
				ScreendQHigh:  5,
				ScreendQLow:   2,
				PoolBuffers:   64,
				Seed:          1,
			},
			Sources:            2,
			PacketsPerSource:   2,
			Gap:                150 * us,
			PauseProbes:        []sim.Duration{520 * us},
			PauseDuration:      1 * ms,
			Horizon:            3 * ms,
			Drain:              12 * ms,
			ProgressWindow:     4 * ms,
			MaxPendingEvents:   64,
			MaxQuiescentEvents: 8,
			Independent:        EmitIndependent,
		},
		{
			Name: "coalesce",
			Desc: "a SACK bulk transfer and 2 tying background sources into the polled " +
				"kernel with count+timer interrupt coalescing and an adversarial reorder " +
				"hold on the data wire: every interleaving of timer expiry, count trigger, " +
				"and displaced segments must conserve frames, finish the transfer, and " +
				"never retransmit without a loss signal",
			Config: kernel.Config{
				Mode:  kernel.ModePolled,
				Quota: 4,
				NIC: nic.Config{RxRing: 8, TxRing: 8,
					Coalesce: nic.CoalesceConfig{Policy: nic.CoalesceCount,
						CountThresh: 2, TimerThresh: 170 * us}},
				OutQueueLimit: 8,
				PoolBuffers:   64,
				Seed:          1,
			},
			Sources:          3,
			PacketsPerSource: 2,
			// Gap equals the coalescing timer threshold, so a queue's
			// holdoff expiry ties with the next arrival: the explorer
			// orders timer-fire against count-trigger both ways.
			Gap: 170 * us,
			TCP: &TCPFlow{
				Port: 8080, TotalBytes: 1024, MSS: 256,
				Variant: kernel.VariantSACK, MaxCwnd: 4,
				RTO: 20 * ms,
			},
			ReorderBudget:      2,
			ReorderSpan:        1,
			ReorderFlush:       1 * ms,
			Horizon:            4 * ms,
			Drain:              60 * ms,
			ProgressWindow:     25 * ms,
			MaxPendingEvents:   64,
			MaxQuiescentEvents: 8,
			Independent:        EmitIndependent,
		},
	}
}

// ScenarioByName returns the built-in scenario with the given name.
func ScenarioByName(name string) (*Scenario, error) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return nil, fmt.Errorf("explore: unknown scenario %q", name)
}
