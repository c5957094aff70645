// Package livelock reproduces Mogul & Ramakrishnan, "Eliminating Receive
// Livelock in an Interrupt-driven Kernel" (USENIX 1996), as a
// deterministic discrete-event simulation of the paper's router testbed:
// an interrupt-driven UNIX kernel forwarding a UDP flood between two
// 10 Mb/s Ethernets.
//
// The package is a facade over the internal implementation:
//
//   - kernel models (Config, NewRouter, RunTrial): the unmodified 4.2BSD
//     structure that livelocks, and the paper's modified kernel — polling
//     with quotas, queue-state feedback, and the CPU cycle limiter;
//   - experiment runners (Fig61 ... Fig71, AllFigures): regenerate every
//     figure in the paper's evaluation;
//   - workloads (ConstantRate, Poisson, Burst): offered-load processes;
//   - analysis helpers (MLFRR, BurstLatency, TransmitStarvation,
//     Fairness).
//
// Quick start:
//
//	res, err := livelock.RunTrial(livelock.Config{Mode: livelock.ModePolled, Quota: 5},
//		8000, livelock.Warmup, livelock.Measure)
//	if err != nil {
//		log.Fatal(err) // the run failed its conservation audit
//	}
//	fmt.Printf("forwarded %.0f pkts/s\n", res.OutputRate)
//
// Everything is driven by simulated time and a seeded RNG: identical
// configurations produce identical results.
package livelock

import (
	"io"

	"livelock/internal/experiment"
	"livelock/internal/fault"
	"livelock/internal/kernel"
	"livelock/internal/metrics"
	"livelock/internal/netstack"
	"livelock/internal/sim"
	"livelock/internal/trace"
	"livelock/internal/workload"
)

// Duration is simulated time in nanoseconds.
type Duration = sim.Duration

// Time is an instant on the simulated clock.
type Time = sim.Time

// Convenient durations.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second

	// Warmup and Measure are the standard trial windows used by the
	// figure runners.
	Warmup  = 500 * sim.Millisecond
	Measure = 3 * sim.Second
)

// Explicit-zero sentinels for Options fields whose zero value selects a
// default (see experiment.Options).
const (
	ZeroWarmup  = experiment.ZeroWarmup
	ZeroMeasure = experiment.ZeroMeasure
	ZeroSeed    = experiment.ZeroSeed
)

// Kernel architecture selection; see the kernel package for semantics.
type Mode = kernel.Mode

// Kernel modes.
const (
	// ModeUnmodified is the stock interrupt-driven 4.2BSD-style kernel
	// (figure 6-2), which livelocks under receive overload.
	ModeUnmodified = kernel.ModeUnmodified
	// ModePolledCompat is the modified kernel emulating the unmodified
	// structure (figure 6-3 "No polling").
	ModePolledCompat = kernel.ModePolledCompat
	// ModePolled is the paper's modified kernel (§6.4).
	ModePolled = kernel.ModePolled
)

// Config assembles a simulated router; the zero value plus a Mode is a
// valid starting point.
type Config = kernel.Config

// Costs is the calibrated CPU cost model.
type Costs = kernel.Costs

// Router is the simulated router-under-test.
type Router = kernel.Router

// TrialResult is the outcome of one fixed-rate measurement trial.
type TrialResult = kernel.TrialResult

// Accounting is a packet-conservation snapshot. Router.Audit checks
// that it balances: every generated, router-originated, or
// fault-injected frame lands in exactly one terminal bucket.
type Accounting = kernel.Accounting

// FaultConfig configures the deterministic fault-injection plane
// (Config.Fault): seeded wire-layer drop/truncate/corrupt/duplicate/
// delay, NIC stall/reset windows and lost interrupts, and screend
// pause windows. The zero value disables all injectors.
type FaultConfig = fault.Config

// FaultPlane owns a router's fault injectors and their counters
// (Router.Fault; nil when faults are disabled).
type FaultPlane = fault.Plane

// AppConfig describes an RPC-style server application bound to a UDP
// socket on the router host (Router.StartApp).
type AppConfig = kernel.AppConfig

// AppServer is a user-mode request/response server.
type AppServer = kernel.AppServer

// Socket is a UDP endpoint on the router host.
type Socket = kernel.Socket

// MonitorConfig configures a BPF-style promiscuous capture tap
// (Router.StartMonitor).
type MonitorConfig = kernel.MonitorConfig

// Monitor is the passive-monitoring process attached to the receive
// path.
type Monitor = kernel.Monitor

// Addr is an IPv4 address.
type Addr = netstack.Addr

// RouterIP returns the router's own address on input network i, for
// client/server workloads aimed at the router host.
func RouterIP(i int) Addr { return kernel.RouterIP(i) }

// PhantomDest is the non-existent host beyond the router that flood
// generators target (§6.1's phantom ARP entry).
func PhantomDest() Addr { return kernel.PhantomDest }

// ClientConfig describes a flow-controlled (windowed) RPC client
// (Router.AttachClient) — the §1 contrast to non-flow-controlled
// floods.
type ClientConfig = kernel.ClientConfig

// Client is the closed-loop RPC client.
type Client = kernel.Client

// Engine is the discrete-event simulator driving a Router.
type Engine = sim.Engine

// NewEngine returns a fresh simulation engine.
func NewEngine() *Engine { return sim.NewEngine() }

// DefaultConfig returns the testbed configuration (unmodified kernel).
func DefaultConfig() Config { return kernel.DefaultConfig() }

// DefaultCosts returns the cost model calibrated to the paper's
// DECstation 3000/300 anchor measurements.
func DefaultCosts() Costs { return kernel.DefaultCosts() }

// ModernCosts returns a ~100×-faster cost profile; with
// Config.LinkBitRate raised to gigabit speed, the paper's curves
// reproduce at proportionally higher rates (livelock is architectural).
func ModernCosts() Costs { return kernel.ModernCosts() }

// NewRouter builds a router on eng; attach generators and run the
// engine.
func NewRouter(eng *Engine, cfg Config) *Router { return kernel.NewRouter(eng, cfg) }

// RunTrial offers a constant-rate load to a fresh router and measures
// forwarding throughput, latency, and user-process CPU share. The error
// reports a failed conservation or cycle audit (Router.Finish).
func RunTrial(cfg Config, rate float64, warmup, measure Duration) (TrialResult, error) {
	return kernel.RunTrial(cfg, rate, warmup, measure)
}

// Arrival processes for generators.
type (
	// Arrival yields successive inter-arrival gaps.
	Arrival = workload.Arrival
	// ConstantRate is a jittered constant-rate source (the paper's
	// generator).
	ConstantRate = workload.ConstantRate
	// Poisson is a Poisson arrival process.
	Poisson = workload.Poisson
	// Burst is an on/off wire-speed burst source.
	Burst = workload.Burst
	// Generator paces frames onto an input wire.
	Generator = workload.Generator
)

// Experiment types.
type (
	// Options configure experiment sweeps, including the parallel trial
	// executor (Options.Parallel bounds the worker pool, 0 = all CPU
	// cores; any worker count produces bit-identical figures).
	Options = experiment.Options
	// Figure is a reproduced paper figure.
	Figure = experiment.Figure
	// Series is one curve of a figure.
	Series = experiment.Series
	// Point is one (input rate, measurement) pair.
	Point = experiment.Point
	// TrialError records a sweep trial whose audit failed or whose panic
	// was recovered by the executor; see Figure.Errors.
	TrialError = experiment.TrialError
)

// Figure runners, one per figure in the paper's evaluation.
var (
	Fig61      = experiment.Fig61
	Fig63      = experiment.Fig63
	Fig64      = experiment.Fig64
	Fig65      = experiment.Fig65
	Fig66      = experiment.Fig66
	Fig71      = experiment.Fig71
	AllFigures = experiment.AllFigures
)

// FigureByID returns the runner for "6-1", "6-3", "6-4", "6-5", "6-6" or
// "7-1", or nil for an unknown id.
func FigureByID(id string) func(Options) Figure { return experiment.ByID(id) }

// MLFRR estimates the Maximum Loss Free Receive Rate of a configuration
// (§3): the highest offered load forwarded with at most the given loss.
func MLFRR(cfg Config, lossTolerance float64, o Options) (float64, error) {
	return experiment.MLFRR(cfg, lossTolerance, o)
}

// MLFRRs estimates the MLFRR of each configuration, all on one worker
// pool; errs[i] is cfgs[i]'s error.
func MLFRRs(cfgs []Config, lossTolerance float64, o Options) (ms []float64, errs []error) {
	return experiment.MLFRRs(cfgs, lossTolerance, o)
}

// BurstLatency measures §4.3's first-of-burst latency effect.
func BurstLatency(mode Mode, burstLen int, o Options) (experiment.LatencyPoint, error) {
	return experiment.BurstLatency(mode, burstLen, o)
}

// WriteBurstLatencyTable renders the §4.3 comparison for several burst
// lengths.
func WriteBurstLatencyTable(w io.Writer, o Options) error {
	return experiment.WriteBurstLatencyTable(w, o)
}

// TransmitStarvation demonstrates §4.4's transmit starvation on the
// no-quota polled kernel.
func TransmitStarvation(o Options) (experiment.StarvationResult, error) {
	return experiment.TransmitStarvation(o)
}

// ClockedPollingSweep measures the §8 "clocked interrupts" (periodic
// polling) alternative across poll intervals.
func ClockedPollingSweep(intervals []Duration, o Options) ([]experiment.ClockedPoint, error) {
	return experiment.ClockedPollingSweep(intervals, o)
}

// Observability layer (see the metrics package): a per-router
// instrument registry sampled on a simulated-time interval, exportable
// as CSV/JSON time-series or Chrome/Perfetto trace JSON.
type (
	// MetricsRegistry is the ordered set of named instruments a router
	// registers when Config.Metrics is set.
	MetricsRegistry = metrics.Registry
	// Sampler snapshots a registry at fixed simulated-time intervals.
	Sampler = metrics.Sampler
	// TimelineSeries is a recorded timeline (schema + sample rows).
	TimelineSeries = metrics.Series
	// SpanLog collects per-task CPU scheduling spans.
	SpanLog = metrics.SpanLog
	// PerfettoTrace merges a timeline, scheduling spans, and packet
	// lifecycle events into one ui.perfetto.dev-openable trace.
	PerfettoTrace = metrics.PerfettoTrace
	// Tracer is the bounded packet-lifecycle event ring.
	Tracer = trace.Tracer
	// TimelineOptions configures RunTimeline.
	TimelineOptions = kernel.TimelineOptions
	// TimelineResult is an instrumented run's output.
	TimelineResult = kernel.TimelineResult
)

// NewMetricsRegistry returns an empty instrument registry for
// Config.Metrics.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// NewSampler returns a sampler over reg ticking every interval.
func NewSampler(eng *Engine, reg *MetricsRegistry, interval Duration) *Sampler {
	return metrics.NewSampler(eng, reg, interval)
}

// NewTracer returns a packet-lifecycle tracer retaining the last
// capacity records, for Config.Trace.
func NewTracer(capacity int) *Tracer { return trace.New(capacity) }

// RunTimeline offers a constant-rate load to a fresh router and records
// a sampled timeline of every instrument (plus, optionally, CPU
// scheduling spans and packet lifecycle events).
func RunTimeline(cfg Config, rate float64, o TimelineOptions) (TimelineResult, error) {
	return kernel.RunTimeline(cfg, rate, o)
}

// TCP types for §7.1's end-system transport experiment.
type (
	// TCPSenderConfig describes a Tahoe-style bulk transfer
	// (Router.AttachTCPSender).
	TCPSenderConfig = kernel.TCPSenderConfig
	// TCPSender is the congestion-controlled bulk sender.
	TCPSender = kernel.TCPSender
	// TCPReceiver is the router-resident receive half
	// (Router.OpenTCPReceiver).
	TCPReceiver = kernel.TCPReceiver
)

// TCPUnderFlood measures Tahoe bulk-transfer goodput against competing
// floods (§7.1's unmeasured experiment).
func TCPUnderFlood(mode Mode, floodRates []float64, o Options) ([]experiment.TCPPoint, error) {
	return experiment.TCPUnderFlood(mode, floodRates, o)
}

// WriteTCPTable renders the §7.1 experiment for both kernels.
func WriteTCPTable(w io.Writer, o Options) error {
	return experiment.WriteTCPTable(w, o)
}

// WriteClockedTable renders the clocked-polling trade-off table.
func WriteClockedTable(w io.Writer, o Options) error {
	return experiment.WriteClockedTable(w, o)
}

// Fairness floods n input interfaces and reports how processing divides
// among them (§5.2 round-robin fairness).
func Fairness(mode Mode, quota, n int, rate float64, o Options) (experiment.FairnessResult, error) {
	return experiment.Fairness(mode, quota, n, rate, o)
}
