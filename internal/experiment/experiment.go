// Package experiment regenerates the paper's evaluation: each figure in
// §6-§7 has a runner that sweeps offered load across the relevant kernel
// configurations and returns the same series the paper plots. Renderers
// produce aligned text tables and CSV.
package experiment

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"time"

	"livelock/internal/kernel"
	"livelock/internal/plot"
	"livelock/internal/sim"
)

// Explicit-zero sentinels. A zero value in Options means "use the
// default", so an actual zero must be requested explicitly.
const (
	// ZeroWarmup requests a trial with no warmup at all (any negative
	// Warmup is treated the same way).
	ZeroWarmup = sim.Duration(-1)
	// ZeroMeasure requests an empty measurement window (any negative
	// Measure is treated the same way).
	ZeroMeasure = sim.Duration(-1)
	// ZeroSeed requests simulation seed 0 (which the RNG remaps to a
	// fixed non-zero constant, so it is still deterministic). The
	// sentinel value itself is consequently not usable as a seed.
	ZeroSeed = ^uint64(0)
)

// Options control trial execution. The zero value is usable.
type Options struct {
	// Rates is the offered-load sweep (pkts/s). Nil selects the
	// figure's default axis.
	Rates []float64
	// Warmup is excluded from measurement (default 500 ms; use
	// ZeroWarmup for an explicit zero).
	Warmup sim.Duration
	// Measure is the measurement window (default 3 s, the paper's
	// trials sent 10,000 packets, i.e. seconds per point; use
	// ZeroMeasure for an explicit zero).
	Measure sim.Duration
	// Seed overrides the simulation seed (default 1; use ZeroSeed for
	// an explicit zero).
	Seed uint64
	// Parallel bounds how many trials a sweep measures concurrently.
	// 0 selects runtime.GOMAXPROCS(0); 1 runs the trials serially in
	// plan order. Each trial is an independent simulation and results
	// are assembled positionally with per-trial seeds fixed up front,
	// so every worker count produces bit-identical figures.
	Parallel int
	// Progress, if non-nil, is invoked once per figure point of a sweep,
	// when the trial that measures it completes, with the completed
	// count, the sweep's total point count (every figure of the sweep,
	// under AllFigures) and the wall-clock time elapsed since the sweep
	// began. A trial several points share completes them all at once.
	// Calls are serialized (done is strictly increasing) but may be
	// issued from worker goroutines.
	Progress func(done, total int, elapsed time.Duration)
	// CPUs, when > 0, overrides the virtual CPU count of every trial
	// (the -cpus sweep); IRQCPUs then sets how many cores the polled
	// kernel dedicates to interrupts. Zero leaves each figure's own
	// configuration — the uniprocessor default — untouched. Three kinds
	// of runner ignore the override: figures S-1/S-2, whose x-axis is
	// the core count; figure 7-1, whose user process runs on one CPU
	// only (kernel.ErrUserProcessSMP); and the TCP runners (figures
	// T-1/T-2 and TCPUnderFlood), whose in-kernel receiver runs on one
	// CPU only.
	CPUs    int
	IRQCPUs int
}

// config returns cfg as a trial of these options runs it: with the
// sweep's seed and, when CPUs is set, its core counts. Every runner
// builds its routers from it.
func (o Options) config(cfg kernel.Config) kernel.Config {
	cfg.Seed = o.Seed
	if o.CPUs > 0 {
		cfg.CPUs = o.CPUs
		cfg.IRQCPUs = o.IRQCPUs
	}
	return cfg
}

// trial returns the trial of kind that measures cfg, as the caller has
// already made it with config, over these options' windows.
func (o Options) trial(kind trialKind, cfg kernel.Config) trial {
	return trial{kind: kind, cfg: cfg, warmup: o.Warmup, measure: o.Measure}
}

// plain returns the requests of a curve of plain trials of cfg, one per
// offered load; profiled requests each point's wasted-work fraction.
func (o Options) plain(cfg kernel.Config, profiled bool) func(rate float64) request {
	cfg = o.config(cfg)
	return func(rate float64) request {
		t := o.trial(plainTrial, cfg)
		t.rate = rate
		return request{t, rate, profiled}
	}
}

// mlfrr returns the request for cfg's MLFRR at lossTolerance, reported
// at x.
func (o Options) mlfrr(cfg kernel.Config, lossTolerance, x float64) request {
	t := o.trial(mlfrrTrial, cfg)
	t.tol = lossTolerance
	return request{trial: t, x: x}
}

func (o Options) withDefaults(defaultRates []float64) Options {
	if o.Rates == nil {
		o.Rates = defaultRates
	}
	o.Warmup = durationOrDefault(o.Warmup, 500*sim.Millisecond)
	o.Measure = durationOrDefault(o.Measure, 3*sim.Second)
	switch o.Seed {
	case 0:
		o.Seed = 1
	case ZeroSeed:
		o.Seed = 0
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	return o
}

// durationOrDefault maps the zero value to def and the explicit-zero
// sentinel (any negative duration) to zero.
func durationOrDefault(d, def sim.Duration) sim.Duration {
	switch {
	case d == 0:
		return def
	case d < 0:
		return 0
	default:
		return d
	}
}

// Point is one trial: offered load and what came out.
type Point struct {
	// InputRate is the measured offered load (pkts/s).
	InputRate float64
	// OutputRate is the measured forwarding rate (pkts/s).
	OutputRate float64
	// UserPct is the user-process CPU share in percent (figure 7-1).
	UserPct float64
	// WastedPct is the wasted-work fraction in percent — cycles invested
	// in packets that were later dropped, over all attributed packet
	// cycles. Populated only by profiled sweeps (figure W-1); zero
	// elsewhere.
	WastedPct float64
}

// Series is one curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Peak returns the series' maximum output rate (the MLFRR estimate).
func (s Series) Peak() float64 {
	best := 0.0
	for _, p := range s.Points {
		if p.OutputRate > best {
			best = p.OutputRate
		}
	}
	return best
}

// Final returns the output rate at the highest offered load.
func (s Series) Final() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[len(s.Points)-1].OutputRate
}

// Figure is a reproduced figure: several series over a shared x-axis.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// Errors lists trials that failed their audit or panicked during
	// the sweep; their points are left zero-valued. Empty on a clean
	// sweep.
	Errors []TrialError
}

// defaultThroughputRates is the x-axis of figures 6-1 and 6-3..6-6
// (0 to 12,000 pkts/s).
var defaultThroughputRates = []float64{
	250, 500, 1000, 1500, 2000, 2500, 3000, 3500, 4000, 4500, 5000, 5500,
	6000, 7000, 8000, 9000, 10000, 11000, 12000,
}

// defaultUserCPURates is the x-axis of figure 7-1 (0 to 10,000 pkts/s).
var defaultUserCPURates = []float64{
	0, 500, 1000, 1500, 2000, 2500, 3000, 3500, 4000, 5000, 6000, 7000, 8000, 9000, 10000,
}

// seriesSpec describes one curve of a figure before it is planned.
type seriesSpec struct {
	Label string
	Cfg   kernel.Config
}

// forwardingFrame is the frame of the forwarding figures 6-1, 6-3..6-6
// and W-1: output rate against input rate.
func forwardingFrame(id, title string) Figure {
	return Figure{
		ID:     id,
		Title:  title,
		XLabel: "Input packet rate (pkts/sec)",
		YLabel: "Output packet rate (pkts/sec)",
	}
}

// forwardingPlan declares fig with specs across the offered-load axis;
// profiled requests the wasted-work fraction of every point.
func forwardingPlan(p *plan, fig Figure, specs []seriesSpec, profiled bool, o Options) {
	o = o.withDefaults(defaultThroughputRates)
	p.figure(fig)
	for _, s := range specs {
		p.series(s.Label, o.Rates, o.plain(s.Cfg, profiled))
	}
}

// runFigure measures one figure, planned alone.
func runFigure(o Options, declare func(*plan, Options)) Figure {
	var p plan
	declare(&p, o)
	return p.run(runTrial, o)[0]
}

// Fig61 reproduces figure 6-1: forwarding performance of the unmodified
// kernel, with and without the screend user-mode filter.
func Fig61(o Options) Figure { return runFigure(o, plan61) }

func plan61(p *plan, o Options) {
	forwardingPlan(p, forwardingFrame("6-1", "Forwarding performance of unmodified kernel"), []seriesSpec{
		{"Without screend", kernel.Config{Mode: kernel.ModeUnmodified}},
		{"With screend", kernel.Config{Mode: kernel.ModeUnmodified, Screend: true}},
	}, false, o)
}

// Fig63 reproduces figure 6-3: forwarding performance of the modified
// kernel without screend — unmodified baseline, the no-polling compat
// configuration, polling with quota 5, and polling with no quota.
func Fig63(o Options) Figure { return runFigure(o, plan63) }

func plan63(p *plan, o Options) {
	forwardingPlan(p, forwardingFrame("6-3", "Forwarding performance of modified kernel, without using screend"), []seriesSpec{
		{"Unmodified", kernel.Config{Mode: kernel.ModeUnmodified}},
		{"No polling", kernel.Config{Mode: kernel.ModePolledCompat}},
		{"Polling (quota = 5)", kernel.Config{Mode: kernel.ModePolled, Quota: 5}},
		{"Polling (no quota)", kernel.Config{Mode: kernel.ModePolled, Quota: -1}},
	}, false, o)
}

// Fig64 reproduces figure 6-4: the screend path on the unmodified
// kernel, the polled kernel without feedback, and the polled kernel with
// queue-state feedback.
func Fig64(o Options) Figure { return runFigure(o, plan64) }

func plan64(p *plan, o Options) {
	forwardingPlan(p, forwardingFrame("6-4", "Forwarding performance of modified kernel, with screend"), []seriesSpec{
		{"Unmodified", kernel.Config{Mode: kernel.ModeUnmodified, Screend: true}},
		{"Polling, no feedback", kernel.Config{Mode: kernel.ModePolled, Quota: 10, Screend: true}},
		{"Polling w/feedback", kernel.Config{Mode: kernel.ModePolled, Quota: 10, Screend: true, Feedback: true}},
	}, false, o)
}

// quotaSpecs builds the quota sweep common to figures 6-5 and 6-6.
func quotaSpecs(screend, feedback bool) []seriesSpec {
	var specs []seriesSpec
	for _, q := range []struct {
		quota int
		label string
	}{
		{5, "quota = 5 packets"},
		{10, "quota = 10 packets"},
		{20, "quota = 20 packets"},
		{100, "quota = 100 packets"},
		{-1, "quota = infinity"},
	} {
		specs = append(specs, seriesSpec{q.label, kernel.Config{
			Mode: kernel.ModePolled, Quota: q.quota,
			Screend: screend, Feedback: feedback}})
	}
	return specs
}

// Fig65 reproduces figure 6-5: effect of the packet-count quota without
// screend.
func Fig65(o Options) Figure { return runFigure(o, plan65) }

func plan65(p *plan, o Options) {
	forwardingPlan(p, forwardingFrame("6-5", "Effect of packet-count quota on performance, no screend"), quotaSpecs(false, false), false, o)
}

// Fig66 reproduces figure 6-6: effect of the packet-count quota with
// screend and queue-state feedback.
func Fig66(o Options) Figure { return runFigure(o, plan66) }

func plan66(p *plan, o Options) {
	forwardingPlan(p, forwardingFrame("6-6", "Effect of packet-count quota on performance, with screend"), quotaSpecs(true, true), false, o)
}

// Fig71 reproduces figure 7-1: CPU time available to a compute-bound
// user process under input load, for several cycle-limit thresholds.
// The Options CPUs override does not apply: the user process runs on a
// uniprocessor only (kernel.ErrUserProcessSMP).
func Fig71(o Options) Figure { return runFigure(o, plan71) }

func plan71(p *plan, o Options) {
	o = o.withDefaults(defaultUserCPURates)
	o.CPUs = 0
	p.figure(Figure{
		ID:     "7-1",
		Title:  "User-mode CPU time available using cycle-limit mechanism",
		XLabel: "Input packet rate (pkts/sec)",
		YLabel: "Available CPU time (per cent)",
	})
	for _, th := range []float64{0.25, 0.50, 0.75, 1.00} {
		p.series(fmt.Sprintf("threshold %3.0f %%", th*100), o.Rates, o.plain(kernel.Config{
			Mode: kernel.ModePolled, Quota: 5,
			UserProcess:         true,
			CycleLimitThreshold: th,
		}, false))
	}
}

// FigWasted is this reproduction's own figure W-1: the wasted-work
// fraction — the share of attributed packet cycles spent on packets
// that were ultimately dropped — against offered load, for the same
// configurations as figures 6-1/6-4. It quantifies the paper's central
// mechanism directly: under livelock the unmodified kernel's curve
// climbs toward 100% (every cycle spent, nothing delivered), while
// early ring drops keep the polled kernel's curve near zero.
func FigWasted(o Options) Figure { return runFigure(o, planWasted) }

// planWasted declares W-1's profiled trials. Each is the trial of a
// plain series of figures 6-1, 6-3 or 6-4, so a sweep of all figures
// runs it once, with the profiler, for both.
func planWasted(p *plan, o Options) {
	fig := forwardingFrame("W-1", "Wasted work fraction under increasing offered load")
	fig.YLabel = "Wasted work (per cent of packet cycles)"
	forwardingPlan(p, fig, []seriesSpec{
		{"Unmodified", kernel.Config{Mode: kernel.ModeUnmodified}},
		{"Unmodified w/screend", kernel.Config{Mode: kernel.ModeUnmodified, Screend: true}},
		{"Polling (quota = 5)", kernel.Config{Mode: kernel.ModePolled, Quota: 5}},
		{"Polling w/scr+fb", kernel.Config{Mode: kernel.ModePolled, Quota: 10, Screend: true, Feedback: true}},
	}, true, o)
}

// irqHalfCores is the seriesSpec sentinel for "half the cores take
// interrupts": coresPlan resolves it to CPUs/2 per point, since the
// real value depends on the point's position on the core axis.
const irqHalfCores = -1

// smp1Cores and smp2Cores are the core-count axes of figures S-1 and
// S-2. S-2 starts at 2: isolation needs at least one core left over
// for polling.
var (
	smp1Cores = []float64{1, 2, 4, 8}
	smp2Cores = []float64{2, 4, 8}
)

// coresPlan declares a core-count sweep: each point is its series'
// MLFRR at the point's virtual CPU count, reported as the output rate.
// The Options CPUs/IRQCPUs override deliberately does not apply — the
// axis is the core count.
func coresPlan(p *plan, fig Figure, cores []float64, specs []seriesSpec, o Options) {
	o = o.withDefaults(nil)
	o.CPUs = 0
	p.figure(fig)
	for _, s := range specs {
		p.series(s.Label, cores, func(n float64) request {
			cfg := o.config(s.Cfg)
			cfg.CPUs = int(n)
			if cfg.IRQCPUs == irqHalfCores {
				cfg.IRQCPUs = cfg.CPUs / 2
			}
			return o.mlfrr(cfg, 0.98, n)
		})
	}
}

// FigSMP1 is this reproduction's figure S-1: MLFRR against the virtual
// CPU count for the paper's best kernel (polling, quota 10, screend,
// queue-state feedback) and, for contrast, the unmodified kernel on
// the same screend path plus the pure in-kernel forwarding path with
// no screend at all. Per-core netisrs and steered receive queues let
// the kernel path scale nearly linearly until it reaches the wire
// rate, while both screend curves flatten early: screend is a single
// user process pinned to the boot CPU, so extra cores only offload
// the device and IP work around it — Amdahl's law, not livelock, is
// the SMP ceiling.
func FigSMP1(o Options) Figure { return runFigure(o, planSMP1) }

func planSMP1(p *plan, o Options) {
	coresPlan(p, Figure{
		ID:     "S-1",
		Title:  "MLFRR scaling with virtual CPUs, polling kernel with quota and feedback",
		XLabel: "Virtual CPUs",
		YLabel: "MLFRR (pkts/sec)",
	}, smp1Cores, []seriesSpec{
		{"Unmodified w/screend", kernel.Config{Mode: kernel.ModeUnmodified, Screend: true}},
		{"Polling w/feedback", kernel.Config{Mode: kernel.ModePolled, Quota: 10, Screend: true, Feedback: true}},
		{"Polling, no screend", kernel.Config{Mode: kernel.ModePolled, Quota: 10}},
	}, o)
}

// FigSMP2 is figure S-2: the S-1 polling kernel with interrupt-isolated
// cores — the last IRQCPUs cores take every device interrupt while the
// rest run polling threads undisturbed. One dedicated interrupt core is
// compared against no isolation and against giving interrupts half the
// machine.
func FigSMP2(o Options) Figure { return runFigure(o, planSMP2) }

func planSMP2(p *plan, o Options) {
	base := kernel.Config{Mode: kernel.ModePolled, Quota: 10, Screend: true, Feedback: true}
	oneIRQ, halfIRQ := base, base
	oneIRQ.IRQCPUs = 1
	halfIRQ.IRQCPUs = irqHalfCores
	coresPlan(p, Figure{
		ID:     "S-2",
		Title:  "MLFRR with interrupt-isolated cores, polling kernel with quota and feedback",
		XLabel: "Virtual CPUs",
		YLabel: "MLFRR (pkts/sec)",
	}, smp2Cores, []seriesSpec{
		{"No IRQ isolation", base},
		{"1 IRQ core", oneIRQ},
		{"Half cores IRQ", halfIRQ},
	}, o)
}

// figures lists every reproduced figure in AllFigures order, each with
// the ids ByID accepts for it (canonical first) and its plan.
var figures = []struct {
	ids  []string
	plan func(*plan, Options)
}{
	{[]string{"6-1", "61"}, plan61},
	{[]string{"6-3", "63"}, plan63},
	{[]string{"6-4", "64"}, plan64},
	{[]string{"6-5", "65"}, plan65},
	{[]string{"6-6", "66"}, plan66},
	{[]string{"7-1", "71"}, plan71},
	{[]string{"W-1", "W1", "w-1", "w1", "wasted"}, planWasted},
	{[]string{"S-1", "S1", "s-1", "s1"}, planSMP1},
	{[]string{"S-2", "S2", "s-2", "s2"}, planSMP2},
	{[]string{"T-1", "T1", "t-1", "t1"}, planT1},
	{[]string{"T-2", "T2", "t-2", "t2"}, planT2},
}

// AllFigures runs every reproduced figure as one plan: each distinct
// trial once, on one worker pool, with Progress counting every figure
// point of the sweep.
func AllFigures(o Options) []Figure {
	var p plan
	for _, f := range figures {
		f.plan(&p, o)
	}
	return p.run(runTrial, o)
}

// ByID returns the runner for a figure id ("6-1", "6-3", ...), or nil.
func ByID(id string) func(Options) Figure {
	id = strings.TrimPrefix(id, "fig")
	for _, f := range figures {
		if slices.Contains(f.ids, id) {
			return func(o Options) Figure { return runFigure(o, f.plan) }
		}
	}
	return nil
}

// userCPUFigure reports whether the figure plots user CPU share rather
// than output rate.
func (f Figure) userCPU() bool { return f.ID == "7-1" }

// wastedWork reports whether the figure plots the wasted-work fraction.
func (f Figure) wastedWork() bool { return f.ID == "W-1" }

// value selects the y-axis value of a point for this figure.
func (f Figure) value(p Point) float64 {
	switch {
	case f.userCPU():
		return p.UserPct
	case f.wastedWork():
		return p.WastedPct
	default:
		return p.OutputRate
	}
}

// WriteTable renders the figure as an aligned text table: one row per
// offered rate, one column per series.
func (f Figure) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Figure %s: %s\n", f.ID, f.Title); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s", "input")
	for _, s := range f.Series {
		fmt.Fprintf(w, " | %-20s", s.Label)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%s\n", strings.Repeat("-", 12+23*len(f.Series)))
	for i := range f.rateAxis() {
		fmt.Fprintf(w, "%-12.0f", f.rateAxis()[i])
		for _, s := range f.Series {
			fmt.Fprintf(w, " | %-20.1f", f.value(s.Points[i]))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// WriteCSV renders the figure as CSV: input rate then one column per
// series.
func (f Figure) WriteCSV(w io.Writer) error {
	cols := []string{"input_rate"}
	for _, s := range f.Series {
		cols = append(cols, strings.ReplaceAll(s.Label, ",", ";"))
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for i := range f.rateAxis() {
		row := []string{fmt.Sprintf("%.0f", f.rateAxis()[i])}
		for _, s := range f.Series {
			row = append(row, fmt.Sprintf("%.1f", f.value(s.Points[i])))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// WritePlot renders the figure as a text scatter plot, echoing the
// paper's graphs.
func (f Figure) WritePlot(w io.Writer) error {
	sc := &plot.Scatter{
		Title:  fmt.Sprintf("Figure %s: %s", f.ID, f.Title),
		XLabel: f.XLabel,
		YLabel: f.YLabel,
	}
	if f.userCPU() || f.wastedWork() {
		sc.YMax = 100
	}
	for _, s := range f.Series {
		pts := make([]plot.Point, 0, len(s.Points))
		for _, p := range s.Points {
			pts = append(pts, plot.Point{X: p.InputRate, Y: f.value(p)})
		}
		sc.Add(s.Label, pts)
	}
	_, err := io.WriteString(w, sc.Render())
	return err
}

// rateAxis returns the input-rate axis (from the first series).
func (f Figure) rateAxis() []float64 {
	if len(f.Series) == 0 {
		return nil
	}
	axis := make([]float64, len(f.Series[0].Points))
	for i, p := range f.Series[0].Points {
		axis[i] = p.InputRate
	}
	return axis
}
