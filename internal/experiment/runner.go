package experiment

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"livelock/internal/kernel"
	"livelock/internal/sim"
)

// This file implements the parallel trial executor. Every figure is a
// set of (series × rate) trial points, and each trial constructs its own
// sim.Engine, router, and packet pool — trials share no mutable state,
// so they are embarrassingly parallel. The executor fans all points of a
// sweep out across a bounded worker pool and assembles results
// positionally, which makes the output bit-identical to a serial sweep
// regardless of worker count or scheduling: every trial uses the same
// seed it would have used serially, and result order is fixed by index,
// not completion time.

// seriesSpec describes one curve of a figure before it is measured.
type seriesSpec struct {
	Label string
	Cfg   kernel.Config
}

// TrialError records a trial that failed during a sweep: its audit
// failed, or it panicked. The executor collects both into TrialErrors
// instead of letting one bad configuration kill the remaining trials;
// the failed trial's Point is left zero-valued.
type TrialError struct {
	// Series is the label of the curve the trial belonged to.
	Series string
	// Rate is the offered load of the failed trial (pkts/s).
	Rate float64
	// Err is the audit error or the recovered panic.
	Err error
}

// Error implements the error interface.
func (e TrialError) Error() string {
	return fmt.Sprintf("trial %q @ %.0f pkts/s: %v", e.Series, e.Rate, e.Err)
}

// trialFunc abstracts kernel.RunTrial so executor tests can inject
// failures and observe the windows passed through.
type trialFunc func(cfg kernel.Config, rate float64, warmup, measure sim.Duration) (kernel.TrialResult, error)

// runSeries measures every spec across o.Rates through the
// parallel executor, running each trial with run, and returns the
// completed curves in spec order, plus any trial failures in
// deterministic (series, rate) order.
func runSeries(run trialFunc, specs []seriesSpec, o Options) ([]Series, []TrialError) {
	type job struct{ si, pi int }
	total := len(specs) * len(o.Rates)
	points := make([][]Point, len(specs))
	failures := make([][]error, len(specs))
	for i := range specs {
		points[i] = make([]Point, len(o.Rates))
		failures[i] = make([]error, len(o.Rates))
	}

	workers := o.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}

	var (
		//lkvet:allow simdeterminism wall-clock elapsed time for the operator's progress display, outside the simulation
		start = time.Now()
		mu    sync.Mutex // serializes done counting and Progress calls
		done  int
		wg    sync.WaitGroup
	)
	jobs := make(chan job)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				res, err := runOneTrial(run, specs[j.si].Cfg, o.Rates[j.pi], o)
				if err != nil {
					failures[j.si][j.pi] = err
				} else {
					points[j.si][j.pi] = Point{
						InputRate:  res.InputRate,
						OutputRate: res.OutputRate,
						UserPct:    res.UserCPUFrac * 100,
						WastedPct:  res.WastedFrac * 100,
					}
				}
				if o.Progress != nil {
					mu.Lock()
					done++
					//lkvet:allow simdeterminism progress reporting measures real elapsed time, not simulated time
					o.Progress(done, total, time.Since(start))
					mu.Unlock()
				}
			}
		}()
	}
	for si := range specs {
		for pi := range o.Rates {
			jobs <- job{si, pi}
		}
	}
	close(jobs)
	wg.Wait()

	out := make([]Series, len(specs))
	var errs []TrialError
	for si, spec := range specs {
		out[si] = Series{Label: spec.Label, Points: points[si]}
		for pi, err := range failures[si] {
			if err != nil {
				errs = append(errs, TrialError{Series: spec.Label, Rate: o.Rates[pi], Err: err})
			}
		}
	}
	return out, errs
}

// runOneTrial runs a single trial of the sweep's configuration,
// converting a panic into an error so one broken configuration cannot
// abort the rest of the sweep. A failed audit comes back as the
// trial's own error.
func runOneTrial(run trialFunc, cfg kernel.Config, rate float64, o Options) (res kernel.TrialResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("trial panicked: %v", p)
		}
	}()
	return run(o.config(cfg), rate, o.Warmup, o.Measure)
}
