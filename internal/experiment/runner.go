package experiment

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"livelock/internal/kernel"
	"livelock/internal/prof"
	"livelock/internal/sim"
)

// This file implements the sweep plan and its executor. A figure
// declares its trials into a plan instead of running them. The executor
// runs the union of every planned figure's trials on one worker pool,
// each distinct trial once, and fans each result back out to every
// figure point that asked for it. Trials share no mutable state: each
// constructs its own sim.Engine, router and packet pool. Results land
// by index, never by completion order, and every trial carries its seed
// from the plan, so the figures are bit-identical for every worker
// count and for every subset of figures planned together.

// trialKind says how the executor runs a trial.
type trialKind uint8

const (
	plainTrial trialKind = iota // kernel.RunTrial at the trial's rate
	mlfrrTrial                  // the MLFRR bisection of cfg
	tcpTrial                    // a T-figure bulk transfer
)

// trial is everything that decides a trial's result, and so the key
// the plan runs each trial once by: figure points with equal trials
// measure the same thing.
type trial struct {
	kind trialKind
	// cfg is the configuration as the trial runs it: the sweep's seed
	// and core counts applied, and no Profile (see request).
	cfg kernel.Config
	// rate is a plain trial's offered load. MLFRR and TCP trials leave
	// it zero: their figure's x value (a core count, coalescing
	// threshold or reorder intensity) is already in cfg, and points of
	// different figures that differ only in x share the trial.
	rate            float64
	warmup, measure sim.Duration
	tol             float64           // mlfrrTrial: the loss tolerance
	variant         kernel.TCPVariant // tcpTrial: the sender's loss recovery
	sorting         bool              // tcpTrial: the receiver resequences
}

// request is one figure point: the trial that measures it, the point's
// x value, and whether the point reads the trial's wasted-work
// fraction, which only a profiled trial measures. The profiler is not
// part of the key: a profiled trial serves the plain requests for the
// same trial, because attaching it changes no other field of the
// result (TestProfiledTrialStandsIn pins this for every configuration
// figure W-1 profiles, the only profiled figure).
type request struct {
	trial
	x        float64
	profiled bool
}

// TrialError records a trial that failed during a sweep: its audit
// failed, or it panicked. The executor collects both into TrialErrors
// instead of letting one bad configuration kill the remaining trials;
// the failed trial's Point is left zero-valued.
type TrialError struct {
	// Series is the label of the curve the trial belonged to.
	Series string
	// Rate is the x value of the failed trial: the offered load
	// (pkts/s), or the figure's own axis value.
	Rate float64
	// Err is the audit error or the recovered panic.
	Err error
}

// Error implements the error interface.
func (e TrialError) Error() string {
	return fmt.Sprintf("trial %q @ %.0f pkts/s: %v", e.Series, e.Rate, e.Err)
}

// runFunc runs one distinct trial, with the profiler attached when
// profiled; tests substitute it to inject failures and observe trials.
type runFunc func(t trial, profiled bool) (kernel.TrialResult, error)

// runTrial is the executor's runFunc: it runs t as its kind says.
func runTrial(t trial, profiled bool) (kernel.TrialResult, error) {
	switch t.kind {
	case mlfrrTrial:
		m, err := mlfrr(t.cfg, t.tol, t.warmup, t.measure)
		return kernel.TrialResult{OutputRate: m}, err
	case tcpTrial:
		return tcpGoodputTrial(t.cfg, t.variant, t.sorting, t.warmup, t.measure)
	default:
		cfg := t.cfg
		if profiled {
			cfg.Profile = prof.New()
		}
		return kernel.RunTrial(cfg, t.rate, t.warmup, t.measure)
	}
}

// grouping is a plan's requests grouped by trial.
type grouping struct {
	trials   []trial   // distinct, in order of first request
	profiled []bool    // per trial: some request reads its WastedFrac
	shares   []int     // per trial: how many requests it serves
	which    []int     // per request: the index of its trial
	xs       []float64 // per request: its x value
	wasted   []bool    // per request: it reads WastedFrac
}

// group groups reqs by trial. The key map dies with the call, and the
// requests are not kept: a running sweep holds each distinct trial once.
func group(reqs []request) grouping {
	g := grouping{which: make([]int, len(reqs)), xs: make([]float64, len(reqs)), wasted: make([]bool, len(reqs))}
	at := make(map[trial]int, len(reqs))
	for i, rq := range reqs {
		k, ok := at[rq.trial]
		if !ok {
			k = len(g.trials)
			at[rq.trial] = k
			g.trials = append(g.trials, rq.trial)
			g.profiled = append(g.profiled, false)
			g.shares = append(g.shares, 0)
		}
		g.profiled[k] = g.profiled[k] || rq.profiled
		g.shares[k]++
		g.which[i], g.xs[i], g.wasted[i] = k, rq.x, rq.profiled
	}
	return g
}

// execute runs every distinct trial once with run, on o.Parallel
// workers (0 = GOMAXPROCS), in order of first request, and returns each
// trial's point and error; a failed trial's point is zero. o.Progress
// fires once per request, when its trial completes.
func (g grouping) execute(run runFunc, o Options) ([]Point, []error) {
	workers := o.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(g.trials))

	points := make([]Point, len(g.trials))
	errs := make([]error, len(g.trials))
	var (
		//lkvet:allow simdeterminism wall-clock elapsed time for the operator's progress display, outside the simulation
		start = time.Now()
		mu    sync.Mutex // serializes done counting and Progress calls
		done  int
		wg    sync.WaitGroup
	)
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				res, err := runOne(run, g.trials[k], g.profiled[k])
				if errs[k] = err; err == nil {
					points[k] = Point{
						InputRate:  res.InputRate,
						OutputRate: res.OutputRate,
						UserPct:    res.UserCPUFrac * 100,
						WastedPct:  res.WastedFrac * 100,
					}
				}
				if o.Progress == nil {
					continue
				}
				mu.Lock()
				for range g.shares[k] {
					done++
					//lkvet:allow simdeterminism progress reporting measures real elapsed time, not simulated time
					o.Progress(done, len(g.which), time.Since(start))
				}
				mu.Unlock()
			}
		}()
	}
	for k := range g.trials {
		jobs <- k
	}
	close(jobs)
	wg.Wait()
	return points, errs
}

// runOne runs a single trial, converting a panic into an error so one
// broken configuration cannot abort the rest of the sweep. A failed
// audit comes back as the trial's own error.
func runOne(run runFunc, t trial, profiled bool) (res kernel.TrialResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("trial panicked: %v", p)
		}
	}()
	return run(t, profiled)
}

// plan is a sweep before it runs: the frames of the figures declared
// into it and, in one list, the requests of all their points in
// declaration order.
type plan struct {
	reqs []request
	figs []figFrame
}

// figFrame is one declared figure: its frame (ID, titles and axis
// labels) and the label and point count of each series, whose points
// are the plan's next requests.
type figFrame struct {
	fig    Figure
	labels []string
	sizes  []int
}

// figure starts the declaration of fig.
func (p *plan) figure(fig Figure) { p.figs = append(p.figs, figFrame{fig: fig}) }

// series declares a curve of the figure being declared, with one
// request per x value, made by at.
func (p *plan) series(label string, axis []float64, at func(x float64) request) {
	f := &p.figs[len(p.figs)-1]
	f.labels = append(f.labels, label)
	f.sizes = append(f.sizes, len(axis))
	for _, x := range axis {
		p.reqs = append(p.reqs, at(x))
	}
}

// run measures the plan's figures through one executor and returns
// them in declaration order. An MLFRR or TCP point reads its own x
// value as its input rate; a plain point, the load its trial measured.
// A request that does not read the profiler gets WastedFrac zero, as
// from a plain trial. A failed trial leaves its points zero-valued and
// a TrialError in each figure that asked for it, in (series, x) order.
// The plan is spent: its requests are dropped once grouped.
func (p *plan) run(run runFunc, o Options) []Figure {
	g := group(p.reqs)
	p.reqs = nil
	points, errs := g.execute(run, o)
	figs := make([]Figure, len(p.figs))
	i := 0
	for f, frame := range p.figs {
		fig := frame.fig
		for s, label := range frame.labels {
			pts := make([]Point, frame.sizes[s])
			for j := range pts {
				k := g.which[i]
				if errs[k] != nil {
					fig.Errors = append(fig.Errors, TrialError{Series: label, Rate: g.xs[i], Err: errs[k]})
				}
				pts[j] = points[k]
				if g.trials[k].kind != plainTrial {
					pts[j].InputRate = g.xs[i]
				}
				if !g.wasted[i] {
					pts[j].WastedPct = 0
				}
				i++
			}
			fig.Series = append(fig.Series, Series{Label: label, Points: pts})
		}
		figs[f] = fig
	}
	return figs
}
