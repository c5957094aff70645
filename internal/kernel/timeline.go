package kernel

import (
	"strings"

	"livelock/internal/metrics"
	"livelock/internal/prof"
	"livelock/internal/sim"
	"livelock/internal/trace"
	"livelock/internal/workload"
)

// TimelineOptions configures an instrumented run.
type TimelineOptions struct {
	// Interval is the sampling period (default 10ms).
	Interval sim.Duration
	// RunFor is the simulated run length (default 1s). Sampling starts
	// at t=0 — a timeline exists to show the transient, so there is no
	// warmup exclusion.
	RunFor sim.Duration
	// TraceCap, if positive, attaches a packet-lifecycle tracer
	// retaining the last TraceCap records.
	TraceCap int
	// Spans enables per-task CPU scheduling span collection.
	Spans bool
	// Profile attaches a cycle-attribution profiler (unless cfg.Profile
	// already carries one), populating TimelineResult.Profile.
	Profile bool
}

// TimelineResult is everything an instrumented run produced.
type TimelineResult struct {
	Series *metrics.Series
	// Spans is non-nil when TimelineOptions.Spans was set.
	Spans *metrics.SpanLog
	// Trace is non-nil when TimelineOptions.TraceCap was positive.
	Trace *trace.Tracer
	// Profile is non-nil when a profiler was attached (via
	// TimelineOptions.Profile or Config.Profile).
	Profile *prof.Profile
	// Folded is the run's cycle attribution as folded stacks (one
	// "frames value" line per stack, flamegraph input); empty unless a
	// profiler was attached.
	Folded string

	Sent      uint64
	Delivered uint64
}

// RunTimeline builds a router with cfg, offers load at rate pkts/s from
// t=0, and records a sampled timeline of every registered instrument —
// the one code path behind lkstat (its packet-lifecycle log view
// included), lkfigures -timeline-dir and the tests, so they cannot
// drift apart. The instruments never perturb the run: a plain traced
// router run produces the same records (TestTimelineMatchesPlainRun).
// The run ends in Finish with no drain, whose audit is the error. A
// harness entry point: the caller owns the engine, so the whole run is
// serialized.
//
//lkvet:requires boot
func RunTimeline(cfg Config, rate float64, o TimelineOptions) (TimelineResult, error) {
	if o.Interval <= 0 {
		o.Interval = 10 * sim.Millisecond
	}
	if o.RunFor <= 0 {
		o.RunFor = sim.Second
	}
	eng := sim.NewEngine()
	reg := metrics.NewRegistry()
	cfg.Metrics = reg
	if o.TraceCap > 0 {
		cfg.Trace = trace.New(o.TraceCap)
	}
	if o.Profile && cfg.Profile == nil {
		cfg.Profile = prof.New()
	}
	r := newRouter(eng, cfg)

	var spans *metrics.SpanLog
	if o.Spans {
		spans = metrics.NewSpanLog()
		r.CPU.SetRunHook(spans.Record)
	}

	gen := r.AttachGenerator(0, workload.ConstantRate{Rate: rate, JitterFrac: 0.05}, 0)
	metrics.MustRegister(reg.Counter("gen.sent", gen.Sent))
	gen.Start()

	sampler := metrics.NewSampler(eng, reg, o.Interval)
	sampler.Start()
	// A timeline exists to show the transient, so the whole run is the
	// window.
	r.Measure(0, o.RunFor)
	sampler.Flush()
	sampler.Stop()

	// The ledger balances at any event boundary, so no drain is needed.
	if _, err := r.Finish(0); err != nil {
		return TimelineResult{}, err
	}

	res := TimelineResult{
		Series:    sampler.Series(),
		Spans:     spans,
		Trace:     cfg.Trace,
		Profile:   cfg.Profile,
		Sent:      r.Offered(),
		Delivered: r.Delivered(),
	}
	if cfg.Profile != nil {
		var sb strings.Builder
		if err := r.WriteFolded(&sb); err != nil {
			return TimelineResult{}, err
		}
		res.Folded = sb.String()
	}
	return res, nil
}
