package kernel

import (
	"livelock/internal/sim"
	"livelock/internal/workload"
)

// TrialResult summarizes one measurement trial at a fixed offered load.
type TrialResult struct {
	// InputRate is the measured offered load (frames that actually
	// reached the input wire per second).
	InputRate float64
	// OutputRate is the measured forwarding rate (frames transmitted on
	// the output interface per second) — the paper's y-axis.
	OutputRate float64
	// UserCPUFrac is the fraction of CPU time obtained by the
	// compute-bound user process during the measurement window (§7).
	UserCPUFrac float64
	// LatencyP50/P99 are forwarding-latency quantiles over packets
	// delivered inside the measurement window (warmup deliveries are
	// excluded, like the rate measurements).
	LatencyP50, LatencyP99 sim.Duration
	// Jitter is the p90−p10 latency spread (§3 lists "reasonable
	// latency and jitter" among the scheduling requirements).
	Jitter sim.Duration
	// WastedFrac is the fraction of attributed packet cycles spent on
	// packets that were ultimately dropped — wasted/(useful+wasted) over
	// the measurement window. Populated only when cfg.Profile is set;
	// zero otherwise.
	WastedFrac float64
	// Accounting is the end-of-trial conservation snapshot.
	Accounting Accounting
}

// newRouter builds the routers of RunTrial and RunTimeline; tests wrap it.
var newRouter = NewRouter

// Offered returns the frames every attached generator, TCP sender and
// client has put on the input wires so far: the generated count of the
// conservation audit.
func (r *Router) Offered() uint64 {
	var n uint64
	for _, g := range r.gens {
		n += g.Sent.Value()
	}
	for _, s := range r.senders {
		n += s.SegmentsSent.Value()
	}
	for _, c := range r.clients {
		n += c.Sent.Value()
	}
	return n
}

// Measure runs one measurement window the way the paper samples
// netstat before and after a fixed interval (§6.1): it runs warmup,
// re-baselines the offered and delivered counts, sink latency, profile
// and user CPU time at one instant, then runs measure. Start the
// sources first. Accounting and WastedFrac are left zero: they
// describe the router after Finish.
//
//lkvet:requires boot
func (r *Router) Measure(warmup, measure sim.Duration) TrialResult {
	r.Eng.RunFor(warmup)
	offered, delivered, user := r.Offered(), r.Delivered(), r.UserCPUTime()
	r.Sink.Latency.Reset()
	if r.prof != nil {
		r.prof.ResetStats()
	}
	r.Eng.RunFor(measure)

	lat := r.Sink.Latency
	res := TrialResult{
		LatencyP50: lat.Quantile(0.50),
		LatencyP99: lat.Quantile(0.99),
		Jitter:     lat.Quantile(0.90) - lat.Quantile(0.10),
	}
	if s := measure.Seconds(); s > 0 {
		res.InputRate = float64(r.Offered()-offered) / s
		res.OutputRate = float64(r.Delivered()-delivered) / s
		res.UserCPUFrac = float64(r.UserCPUTime()-user) / float64(measure)
	}
	return res
}

// Finish ends a run: it stops the attached generators, runs drain, and
// returns the post-drain Accounting with the audit of packet
// conservation against Offered, then of every core's cycle ledger. An
// error means the router lost or invented a buffer or a cycle, and the
// run's numbers cannot be trusted.
//
//lkvet:requires boot
func (r *Router) Finish(drain sim.Duration) (Accounting, error) {
	for _, g := range r.gens {
		g.Stop()
	}
	r.Eng.RunFor(drain)
	a := r.Account()
	if err := a.audit(r.Offered()); err != nil {
		return a, err
	}
	return a, r.AuditCycles()
}

// RunTrial builds a router with cfg, offers load at rate pkts/s, and
// returns the rates measured over one window after a warmup, mirroring
// the paper's before/after netstat sampling. The error is the audit
// Finish returns. A harness entry point: the caller owns the engine,
// so the whole run is serialized.
//
//lkvet:requires boot
func RunTrial(cfg Config, rate float64, warmup, measure sim.Duration) (TrialResult, error) {
	r := newRouter(sim.NewEngine(), cfg)
	r.AttachGenerator(0, workload.ConstantRate{Rate: rate, JitterFrac: 0.05}, 0).Start()
	res := r.Measure(warmup, measure)
	var err error
	res.Accounting, err = r.Finish(200 * sim.Millisecond) // so Accounting sees a quiesced router
	// A cycle is wasted or useful by its packet's fate: read the
	// fraction once the drain has settled the window's packets.
	if r.prof != nil {
		res.WastedFrac = r.prof.WastedFrac()
	}
	return res, err
}
