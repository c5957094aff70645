package experiment

// Figures T-1 and T-2 reproduce the interaction Wu, DeMar & Crawford
// measured on real NICs ("The performance analysis of Linux networking
// — packet receiving", and the follow-on interrupt-coalescing studies):
// interrupt coalescing delays and batches delivery, which inflates the
// effective RTT; packet reordering converts that inflation into
// congestion-control damage, because every spurious fast-retransmit
// episode now costs a longer recovery at a reduced window. Loss-
// recovery generation matters — SACK keeps data flowing through the
// phantom holes Reno stalls on — and receiver-side resequencing, which
// holds out-of-order segments briefly instead of emitting duplicate
// ACKs, recovers almost all of the clean-path goodput.
//
// T-1 sweeps the coalescing packet-count threshold at a fixed reorder
// intensity; T-2 sweeps the reorder intensity at a fixed coalescing
// threshold. Both plot application goodput (kbit/s of in-order bytes
// delivered) of a long-running bulk transfer into the router host.

import (
	"livelock/internal/fault"
	"livelock/internal/kernel"
	"livelock/internal/nic"
	"livelock/internal/sim"
)

// Fixed parameters of the T-figures. The reorder fault displaces a
// held frame past reorderSpan successors — enough to generate three
// duplicate ACKs — with a flush long enough that the displacement
// actually happens at the wire's serialization rate (a 570-byte frame
// takes ≈0.46 ms at 10 Mbit/s, so four take ≈1.9 ms). The resequencer
// hold must cover that span; the coalescing holdoff timer bounds the
// batching delay when the count threshold exceeds what the window
// keeps in flight.
//
// Every arm additionally sees a light real loss rate. A displaced
// frame's hole heals itself when the frame lands, so a pure-reorder
// path costs each Reno-family variant the same single window halving
// per episode and the generations never separate; it is the multi-loss
// windows of a genuinely lossy path (in the NIC studies, the receive
// overflows that coalescing bursts cause — which this 10 Mbit/s wire
// is too slow to reproduce endogenously) that Reno turns into
// retransmission timeouts and SACK repairs in one round trip.
const (
	tcpMSS           = 512
	tcpMaxCwnd       = 16
	tcpReorderSpan   = 4
	tcpReorderPM     = 50 // T-1's fixed reorder intensity, per 1000 frames
	tcpLossPM        = 20 // real wire loss, per 1000 frames, on every arm
	tcpCoalesceCount = 8  // T-2's fixed packet-count threshold
)

const (
	tcpReorderFlush = 8 * sim.Millisecond
	// The resequencer hold must outlast the full reorder latency a
	// displaced frame can see: the wire displacement plus one coalescing
	// holdoff (the frame sits in the ring until its batch asserts).
	tcpReseqHold     = 8 * sim.Millisecond
	tcpCoalesceTimer = 5 * sim.Millisecond
	tcpRTO           = 50 * sim.Millisecond
)

// tcpCoalesceThresholds is T-1's x-axis: the coalescing packet-count
// threshold, from effectively-immediate to larger than the congestion
// window ever lets accumulate (past which the holdoff timer governs).
var tcpCoalesceThresholds = []float64{1, 2, 4, 8, 16, 32}

// tcpReorderIntensities is T-2's x-axis: frames held for displacement
// per 1000, so the axis stays integral in tables and CSV.
var tcpReorderIntensities = []float64{0, 10, 20, 50, 100}

// tcpArm is one series of a T-figure: a loss-recovery variant, a
// reorder intensity (per 1000 frames; -1 = take it from the x-axis),
// and whether the receiver resequences.
type tcpArm struct {
	label   string
	variant kernel.TCPVariant
	perMill float64
	sorting bool
}

// tcpConfig is the router of a T-figure trial: the polled kernel with
// coalescing co on its input NIC, the displacing reorder fault at
// perMill frames per 1000 and the light real loss every arm sees. cfg
// carries the sweep's seed.
func tcpConfig(cfg kernel.Config, co nic.CoalesceConfig, perMill float64) kernel.Config {
	cfg.Mode, cfg.Quota = kernel.ModePolled, 5
	cfg.NIC.Coalesce = co
	cfg.Fault = fault.Config{
		DropProb:     tcpLossPM / 1000.0,
		ReorderProb:  perMill / 1000,
		ReorderSpan:  tcpReorderSpan,
		ReorderMode:  fault.ReorderDisplace,
		ReorderFlush: tcpReorderFlush,
	}
	return cfg
}

// tcpGoodputTrial measures steady-state application goodput of an
// unbounded bulk transfer through cfg (a tcpConfig): warm up, then
// count in-order bytes delivered over the measurement window. The
// kernel.RunTrial generator path is not used — the TCP sender's ACK
// clock is the workload.
func tcpGoodputTrial(cfg kernel.Config, variant kernel.TCPVariant, sorting bool,
	warmup, measure sim.Duration,
) (kernel.TrialResult, error) {
	r := kernel.NewRouter(sim.NewEngine(), cfg)
	rx := r.OpenTCPReceiver(8080)
	if variant == kernel.VariantSACK {
		rx.EnableSACK()
	}
	if sorting {
		rx.SetResequencing(tcpReseqHold)
	}
	snd := r.AttachTCPSender(0, kernel.TCPSenderConfig{
		Port: 8080, MSS: tcpMSS, Variant: variant, MaxCwnd: tcpMaxCwnd,
		RTO: tcpRTO,
	})
	snd.Start()
	goodput, err := goodputWindow(r, rx, warmup, measure)
	return kernel.TrialResult{OutputRate: float64(goodput) * 8 / 1000 / measure.Seconds()}, err
}

// tcpPlan declares a T-figure: one series per arm across axis, which
// carries either the coalescing count threshold (axisIsCount) or the
// reorder intensity. The Options CPUs override does not apply: the
// in-kernel TCP receiver runs on one CPU only.
func tcpPlan(p *plan, fig Figure, axis []float64, arms []tcpArm, axisIsCount bool, o Options) {
	o = o.withDefaults(nil)
	o.CPUs = 0
	p.figure(fig)
	for _, arm := range arms {
		p.series(arm.label, axis, func(x float64) request {
			co := nic.CoalesceConfig{Policy: nic.CoalesceCount,
				CountThresh: tcpCoalesceCount, TimerThresh: tcpCoalesceTimer}
			perMill := arm.perMill
			if axisIsCount {
				co.CountThresh = int(x)
			} else {
				perMill = x
			}
			t := o.trial(tcpTrial, tcpConfig(o.config(kernel.Config{}), co, perMill))
			t.variant, t.sorting = arm.variant, arm.sorting
			return request{trial: t, x: x}
		})
	}
}

// planT1 declares this reproduction's figure T-1: bulk-transfer goodput
// against the interrupt-coalescing packet-count threshold, under a
// fixed mild reorder fault on a lightly lossy path, for the
// Reno/NewReno/SACK loss-recovery generations with and without
// receiver-side resequencing, plus the no-reorder baselines (sorted
// and unsorted — sorting itself taxes genuine loss recovery by the
// hold it puts on duplicate ACKs, so the fair "what does reordering
// cost a sorting receiver" comparison is against the sorted one).
// Coalescing inflates the RTT, which multiplies the per-episode cost
// of every spurious recovery: Reno and NewReno fall fastest, SACK
// keeps a clear margin, and resequencing recovers ≥90% of the
// no-reorder goodput at every threshold.
func planT1(p *plan, o Options) {
	tcpPlan(p, Figure{
		ID:     "T-1",
		Title:  "TCP goodput vs interrupt-coalescing threshold under reordering",
		XLabel: "Coalescing packet-count threshold (frames)",
		YLabel: "Goodput (kbit/s)",
	}, tcpCoalesceThresholds, []tcpArm{
		{"Reno, reorder", kernel.VariantReno, tcpReorderPM, false},
		{"NewReno, reorder", kernel.VariantNewReno, tcpReorderPM, false},
		{"SACK, reorder", kernel.VariantSACK, tcpReorderPM, false},
		{"SACK, reorder+sort", kernel.VariantSACK, tcpReorderPM, true},
		{"SACK, no reorder", kernel.VariantSACK, 0, false},
		{"SACK, sort, no reorder", kernel.VariantSACK, 0, true},
	}, true, o)
}

// planT2 declares figure T-2: the same transfer against reorder intensity at
// the fixed default coalescing threshold, for all four variants and
// the sorted-SACK repair arm. It separates the variants' reorder
// robustness from the coalescing axis: Tahoe collapses to cwnd=1 on
// every phantom loss, Reno stalls on multi-hole windows, NewReno and
// SACK degrade gracefully, and resequencing stays near the clean rate.
func planT2(p *plan, o Options) {
	tcpPlan(p, Figure{
		ID:     "T-2",
		Title:  "TCP goodput vs reorder intensity with interrupt coalescing",
		XLabel: "Frames reordered (per 1000)",
		YLabel: "Goodput (kbit/s)",
	}, tcpReorderIntensities, []tcpArm{
		{"Tahoe", kernel.VariantTahoe, -1, false},
		{"Reno", kernel.VariantReno, -1, false},
		{"NewReno", kernel.VariantNewReno, -1, false},
		{"SACK", kernel.VariantSACK, -1, false},
		{"SACK + sort", kernel.VariantSACK, -1, true},
	}, false, o)
}
