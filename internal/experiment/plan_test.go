package experiment

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"livelock/internal/kernel"
	"livelock/internal/prof"
	"livelock/internal/sim"
)

// goldenOpts are the root package's benchOpts, the settings under which
// testdata/golden-figures.json was taken.
var goldenOpts = Options{
	Rates:   []float64{1000, 2000, 3000, 4000, 5000, 6000, 8000, 10000, 12000},
	Warmup:  300 * sim.Millisecond,
	Measure: 1500 * sim.Millisecond,
}

// inParallel runs f(0..n-1) on GOMAXPROCS goroutines.
func inParallel(n int, f func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// TestPlanRunsEachTrialOnce pins the plan's fan-out: points with equal
// trials share one run, a profiled request's trial serves the plain
// requests for it, only the profiled points read its WastedFrac, and
// Progress still fires once per point of every planned figure.
func TestPlanRunsEachTrialOnce(t *testing.T) {
	var mu sync.Mutex
	runs := make(map[trial]int)
	profiledRuns := 0
	run := func(tr trial, profiled bool) (kernel.TrialResult, error) {
		mu.Lock()
		runs[tr]++
		if profiled {
			profiledRuns++
		}
		mu.Unlock()
		res := kernel.TrialResult{InputRate: tr.rate, OutputRate: tr.rate * float64(tr.cfg.Quota)}
		if profiled {
			res.WastedFrac = 0.5
		}
		return res, nil
	}
	o := Options{Rates: []float64{1, 2, 3}, Seed: 1, Parallel: 3}
	a, b := kernel.Config{Quota: 2}, kernel.Config{Quota: 3}
	var p plan
	p.figure(Figure{ID: "plain"})
	p.series("a", o.Rates, o.plain(a, false))
	p.series("b", o.Rates, o.plain(b, false))
	p.series("a again", o.Rates, o.plain(a, false))
	p.figure(Figure{ID: "wasted"})
	p.series("b profiled", o.Rates, o.plain(b, true))

	var dones []int
	total := 0
	o.Progress = func(done, tot int, _ time.Duration) {
		dones = append(dones, done)
		total = tot
	}
	figs := p.run(run, o)

	if len(runs) != 6 {
		t.Errorf("%d distinct trials ran, want 6", len(runs))
	}
	for tr, n := range runs {
		if n != 1 {
			t.Errorf("trial %+v ran %d times, want once", tr, n)
		}
	}
	if profiledRuns != 3 {
		t.Errorf("%d profiled runs, want 3 (series b's)", profiledRuns)
	}
	if total != 12 || len(dones) != 12 || dones[11] != 12 {
		t.Errorf("progress: total %d, %d calls ending at %v; want 12 calls up to 12", total, len(dones), dones)
	}
	for i, x := range o.Rates {
		if p := figs[0].Series[2].Points[i]; p.OutputRate != 2*x {
			t.Errorf("shared point a@%v = %+v, want output %v", x, p, 2*x)
		}
		if p := figs[0].Series[1].Points[i]; p.OutputRate != 3*x || p.WastedPct != 0 {
			t.Errorf("plain point b@%v = %+v, want output %v and no wasted work", x, p, 3*x)
		}
		if p := figs[1].Series[0].Points[i]; p.OutputRate != 3*x || p.WastedPct != 50 {
			t.Errorf("profiled point b@%v = %+v, want output %v and 50%% wasted", x, p, 3*x)
		}
	}

	// T-1's count-8 column and T-2's 50 and 0 per 1000 columns share six
	// transfers (same Config, variant and resequencing): of the 36 + 25
	// points, 55 distinct transfers run, and each shared point still
	// reads its own figure's x value.
	clear(runs)
	var tp plan
	planT1(&tp, o)
	planT2(&tp, o)
	tcpFigs := tp.run(run, Options{Parallel: 2})
	if len(runs) != 55 {
		t.Errorf("T-1 + T-2 ran %d distinct transfers, want 55", len(runs))
	}
	for tr, n := range runs {
		if n != 1 {
			t.Errorf("transfer %+v ran %d times, want once", tr, n)
		}
	}
	axes := map[string][]float64{"T-1": tcpCoalesceThresholds, "T-2": tcpReorderIntensities}
	for _, fig := range tcpFigs {
		for _, s := range fig.Series {
			for i, p := range s.Points {
				if want := axes[fig.ID][i]; p.InputRate != want {
					t.Errorf("%s %q point %d: input %v, want its x value %v", fig.ID, s.Label, i, p.InputRate, want)
				}
			}
		}
	}
}

// TestAllFiguresMatchEachAlone: the plan changes no figure. Every
// figure of one serial AllFigures sweep is byte-identical to the same
// figure planned alone on the default worker pool.
func TestAllFiguresMatchEachAlone(t *testing.T) {
	o := Options{Rates: []float64{2000, 8000}, Warmup: 20 * sim.Millisecond, Measure: 60 * sim.Millisecond}
	serial := o
	serial.Parallel = 1
	all := AllFigures(serial)
	if len(all) != len(figures) {
		t.Fatalf("AllFigures returned %d figures, want %d", len(all), len(figures))
	}
	for i, f := range figures {
		alone := ByID(f.ids[0])(o)
		var a, b bytes.Buffer
		if err := all[i].WriteCSV(&a); err != nil {
			t.Fatal(err)
		}
		if err := alone.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		if all[i].ID != f.ids[0] || a.String() != b.String() {
			t.Errorf("figure %s under AllFigures:\n%s\nalone:\n%s", f.ids[0], a.String(), b.String())
		}
		if len(all[i].Errors) != 0 || len(alone.Errors) != 0 {
			t.Errorf("figure %s: trial errors %v / %v", f.ids[0], all[i].Errors, alone.Errors)
		}
	}
}

// TestProfiledTrialStandsIn pins the relation that lets a profiled
// trial serve a plain one: for every trial the figures request
// profiled (W-1's), at the golden settings, attaching the profiler
// changes no TrialResult field but WastedFrac. A new profiled request
// extends this test's cost, and its relation, with it.
func TestProfiledTrialStandsIn(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every profiled golden trial twice")
	}
	var p plan
	for _, f := range figures {
		f.plan(&p, goldenOpts)
	}
	var trials []trial
	for _, rq := range p.reqs {
		if rq.profiled {
			trials = append(trials, rq.trial)
		}
	}
	if len(trials) != 36 {
		t.Fatalf("%d profiled trials, want W-1's 36", len(trials))
	}
	inParallel(len(trials), func(i int) {
		tr := trials[i]
		plain, err := kernel.RunTrial(tr.cfg, tr.rate, tr.warmup, tr.measure)
		if err != nil {
			t.Error(err)
		}
		cfg := tr.cfg
		cfg.Profile = prof.New()
		profiled, err := kernel.RunTrial(cfg, tr.rate, tr.warmup, tr.measure)
		if err != nil {
			t.Error(err)
		}
		profiled.WastedFrac = 0
		if profiled != plain {
			t.Errorf("%+v @ %.0f: profiled %+v, plain %+v", tr.cfg, tr.rate, profiled, plain)
		}
	})
}

// TestProbeVerdictsMatchFullWindow is the early stop's differential
// test: along every bisection of the golden S-1 and S-2 sweeps, each
// probe gives the same verdict stopped early as over its full window,
// and every probe, stopped or not, passes its Finish audits.
func TestProbeVerdictsMatchFullWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every golden MLFRR probe twice")
	}
	var p plan
	planSMP1(&p, goldenOpts)
	planSMP2(&p, goldenOpts)
	trials := group(p.reqs).trials
	var mu sync.Mutex
	probes, cuts := 0, 0
	inParallel(len(trials), func(i int) {
		tr := trials[i]
		_, err := bisect(func(rate float64) (bool, error) {
			full, fullCut, err := probe(tr.cfg, rate, tr.tol, tr.warmup, tr.measure, false)
			if err != nil || fullCut {
				t.Errorf("%d cores, %+v @ %.0f: full-window probe cut %v, err %v", tr.cfg.CPUs, tr.cfg, rate, fullCut, err)
			}
			early, cut, err := probe(tr.cfg, rate, tr.tol, tr.warmup, tr.measure, true)
			if err != nil {
				t.Errorf("%d cores, %+v @ %.0f: early-stopped probe audit: %v", tr.cfg.CPUs, tr.cfg, rate, err)
			}
			if early != full {
				t.Errorf("%d cores, %+v @ %.0f: early verdict %v, full window %v", tr.cfg.CPUs, tr.cfg, rate, early, full)
			}
			mu.Lock()
			probes++
			if cut {
				cuts++
			}
			mu.Unlock()
			return full, nil
		})
		if err != nil {
			t.Error(err)
		}
	})
	t.Logf("%d distinct points, %d probes, %d stopped early", len(trials), probes, cuts)
	if cuts == 0 {
		t.Error("no probe stopped early")
	}
}
