package experiment

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"livelock/internal/fault"
	"livelock/internal/kernel"
	"livelock/internal/sim"
	"livelock/internal/workload"
)

// TestParallelMatchesSerial is the executor's determinism contract: a
// figure swept serially and the same figure swept across many workers
// must be bit-identical — same series order, same points, byte-equal
// CSV and table renderings.
func TestParallelMatchesSerial(t *testing.T) {
	base := Options{
		Rates:   []float64{1000, 6000, 12000},
		Warmup:  100 * sim.Millisecond,
		Measure: 400 * sim.Millisecond,
	}
	serial := base
	serial.Parallel = 1
	parallel := base
	parallel.Parallel = 8

	for _, runner := range []struct {
		name string
		fn   func(Options) Figure
	}{{"6-3", Fig63}, {"7-1", Fig71}} {
		fs, fp := runner.fn(serial), runner.fn(parallel)
		if len(fs.Errors) != 0 || len(fp.Errors) != 0 {
			t.Fatalf("fig %s: unexpected trial errors: %v / %v", runner.name, fs.Errors, fp.Errors)
		}
		var csvS, csvP, tabS, tabP bytes.Buffer
		if err := fs.WriteCSV(&csvS); err != nil {
			t.Fatal(err)
		}
		if err := fp.WriteCSV(&csvP); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(csvS.Bytes(), csvP.Bytes()) {
			t.Errorf("fig %s: serial and parallel CSV differ:\n--- serial\n%s--- parallel\n%s",
				runner.name, csvS.String(), csvP.String())
		}
		if err := fs.WriteTable(&tabS); err != nil {
			t.Fatal(err)
		}
		if err := fp.WriteTable(&tabP); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tabS.Bytes(), tabP.Bytes()) {
			t.Errorf("fig %s: serial and parallel tables differ", runner.name)
		}
	}
}

// TestTimelineDeterministicAcrossWorkers extends the determinism
// contract to instrumented runs: a timeline recorded inside a
// goroutine, with other instrumented trials running concurrently (the
// parallel trial executor's situation), must be byte-identical to the
// same timeline recorded serially.
func TestTimelineDeterministicAcrossWorkers(t *testing.T) {
	cfgs := []kernel.Config{
		{Mode: kernel.ModeUnmodified},
		{Mode: kernel.ModeUnmodified, Screend: true},
		{Mode: kernel.ModePolled, Quota: 5},
		// A fault-enabled config: injected faults must be just as
		// reproducible across worker counts as the clean runs.
		{Mode: kernel.ModePolled, Quota: 5, Fault: fault.Config{
			DropProb: 0.02, CorruptProb: 0.05, DupProb: 0.02,
			StallPeriod:   50 * sim.Millisecond,
			StallDuration: 5 * sim.Millisecond,
		}},
	}
	topt := kernel.TimelineOptions{
		Interval: 10 * sim.Millisecond,
		RunFor:   200 * sim.Millisecond,
	}
	render := func(cfg kernel.Config) []byte {
		res, err := kernel.RunTimeline(cfg, 9000, topt)
		if err != nil {
			t.Error(err)
		}
		var b bytes.Buffer
		if err := res.Series.WriteCSV(&b); err != nil {
			t.Error(err)
		}
		return b.Bytes()
	}

	want := make([][]byte, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = render(cfg)
		if len(want[i]) == 0 || bytes.Count(want[i], []byte("\n")) < 21 {
			t.Fatalf("cfg %d: serial timeline suspiciously short:\n%s", i, want[i])
		}
	}

	const workers = 9
	got := make([][]byte, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = render(cfgs[w%len(cfgs)])
		}()
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if !bytes.Equal(got[w], want[w%len(cfgs)]) {
			t.Errorf("worker %d: concurrent timeline differs from serial reference", w)
		}
	}
}

// stubTrial returns a deterministic result derived from the arguments,
// without running a simulation.
func stubTrial(cfg kernel.Config, rate float64, warmup, measure sim.Duration) (kernel.TrialResult, error) {
	return kernel.TrialResult{InputRate: rate, OutputRate: rate * float64(cfg.Quota)}, nil
}

// plainRun adapts a function of a plain trial's parameters to the
// executor.
func plainRun(f func(cfg kernel.Config, rate float64, warmup, measure sim.Duration) (kernel.TrialResult, error)) runFunc {
	return func(t trial, _ bool) (kernel.TrialResult, error) { return f(t.cfg, t.rate, t.warmup, t.measure) }
}

// sweep runs one figure of plain series, one per spec across o.Rates,
// through the executor with run.
func sweep(run runFunc, specs []seriesSpec, o Options) ([]Series, []TrialError) {
	var p plan
	p.figure(Figure{})
	for _, s := range specs {
		p.series(s.Label, o.Rates, o.plain(s.Cfg, false))
	}
	fig := p.run(run, o)[0]
	return fig.Series, fig.Errors
}

func TestSweepPanicRecovery(t *testing.T) {
	boom := func(cfg kernel.Config, rate float64, warmup, measure sim.Duration) (kernel.TrialResult, error) {
		if rate == 2000 {
			panic("rate 2000 exploded")
		}
		return stubTrial(cfg, rate, warmup, measure)
	}
	o := Options{Rates: []float64{1000, 2000, 3000}, Parallel: 4, Seed: 1}
	specs := []seriesSpec{
		{"a", kernel.Config{Quota: 2}},
		{"b", kernel.Config{Quota: 3}},
	}
	series, errs := sweep(plainRun(boom), specs, o)
	if len(series) != 2 {
		t.Fatalf("series = %d, want 2", len(series))
	}
	// Surviving trials completed despite the panics.
	if got := series[1].Points[2].OutputRate; got != 9000 {
		t.Errorf("series b @3000 = %.0f, want 9000", got)
	}
	// Failed trials report zero-valued points.
	if p := series[0].Points[1]; p.InputRate != 0 || p.OutputRate != 0 {
		t.Errorf("panicked trial left non-zero point %+v", p)
	}
	// Errors come back in deterministic (series, rate) order.
	if len(errs) != 2 {
		t.Fatalf("errors = %v, want 2 entries", errs)
	}
	if errs[0].Series != "a" || errs[1].Series != "b" ||
		errs[0].Rate != 2000 || errs[1].Rate != 2000 {
		t.Errorf("error order wrong: %v", errs)
	}
	if !strings.Contains(errs[0].Error(), "rate 2000 exploded") {
		t.Errorf("recovered panic message lost: %v", errs[0])
	}
}

func TestSweepProgress(t *testing.T) {
	var dones []int
	var total int
	o := Options{
		Rates:    []float64{1, 2, 3},
		Parallel: 3,
		Progress: func(done, tot int, elapsed time.Duration) {
			dones = append(dones, done)
			total = tot
			if elapsed < 0 {
				t.Errorf("negative elapsed %v", elapsed)
			}
		},
	}
	specs := []seriesSpec{{"a", kernel.Config{}}, {"b", kernel.Config{}}}
	sweep(plainRun(stubTrial), specs, o)
	if total != 6 {
		t.Fatalf("total = %d, want 6", total)
	}
	if len(dones) != 6 {
		t.Fatalf("progress calls = %d, want 6", len(dones))
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("done sequence %v not strictly increasing from 1", dones)
		}
	}
}

func TestOptionsWithDefaults(t *testing.T) {
	axis := []float64{100}

	d := Options{}.withDefaults(axis)
	if d.Warmup != 500*sim.Millisecond || d.Measure != 3*sim.Second || d.Seed != 1 {
		t.Fatalf("zero-value defaults wrong: %+v", d)
	}
	if d.Parallel != runtime.GOMAXPROCS(0) {
		t.Fatalf("Parallel default = %d, want GOMAXPROCS %d", d.Parallel, runtime.GOMAXPROCS(0))
	}
	if len(d.Rates) != 1 || d.Rates[0] != 100 {
		t.Fatalf("default rates not applied: %v", d.Rates)
	}

	set := Options{
		Rates: []float64{7}, Warmup: sim.Second, Measure: 2 * sim.Second,
		Seed: 9, Parallel: 3,
	}.withDefaults(axis)
	if set.Warmup != sim.Second || set.Measure != 2*sim.Second || set.Seed != 9 || set.Parallel != 3 {
		t.Fatalf("explicit values clobbered: %+v", set)
	}
	if set.Rates[0] != 7 {
		t.Fatalf("explicit rates clobbered: %v", set.Rates)
	}

	z := Options{Warmup: ZeroWarmup, Measure: ZeroMeasure, Seed: ZeroSeed}.withDefaults(nil)
	if z.Warmup != 0 {
		t.Fatalf("ZeroWarmup → %v, want 0", z.Warmup)
	}
	if z.Measure != 0 {
		t.Fatalf("ZeroMeasure → %v, want 0", z.Measure)
	}
	if z.Seed != 0 {
		t.Fatalf("ZeroSeed → %d, want 0", z.Seed)
	}

	// A non-nil empty rate slice is an explicit (if useless) choice.
	empty := Options{Rates: []float64{}}.withDefaults(axis)
	if len(empty.Rates) != 0 {
		t.Fatalf("explicit empty rates replaced: %v", empty.Rates)
	}
}

// TestZeroWarmupTrial proves an explicit zero-warmup trial is actually
// runnable end to end — the regression that motivated the sentinels.
func TestZeroWarmupTrial(t *testing.T) {
	var gotWarmup, gotMeasure sim.Duration
	capture := func(cfg kernel.Config, rate float64, warmup, measure sim.Duration) (kernel.TrialResult, error) {
		gotWarmup, gotMeasure = warmup, measure
		return kernel.TrialResult{}, nil
	}
	o := Options{Rates: []float64{500}, Warmup: ZeroWarmup, Measure: 100 * sim.Millisecond}
	sweep(plainRun(capture), []seriesSpec{{"x", kernel.Config{}}}, o.withDefaults(nil))
	if gotWarmup != 0 {
		t.Fatalf("trial ran with warmup %v, want 0", gotWarmup)
	}
	if gotMeasure != 100*sim.Millisecond {
		t.Fatalf("measure = %v", gotMeasure)
	}

	// And the real kernel tolerates it (including a zero measure).
	res, err := kernel.RunTrial(kernel.Config{Mode: kernel.ModePolled, Quota: 5, UserProcess: true},
		1000, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.UserCPUFrac != 0 || res.OutputRate != 0 {
		t.Fatalf("zero-window trial produced %+v", res)
	}
}

// TestSweepReportsAuditFailure pins the executor's error path for a
// failed audit: a trial whose router leaked a pool buffer returns
// Finish's error, and the sweep reports it as that trial's TrialError
// while the other trials complete.
func TestSweepReportsAuditFailure(t *testing.T) {
	leaky := func(cfg kernel.Config, rate float64, warmup, measure sim.Duration) (kernel.TrialResult, error) {
		r := kernel.NewRouter(sim.NewEngine(), cfg)
		r.AttachGenerator(0, workload.ConstantRate{Rate: rate, JitterFrac: 0.05}, 0).Start()
		res := r.Measure(warmup, measure)
		if rate == 2000 && r.Pool.Get(64) == nil {
			t.Error("pool exhausted")
		}
		_, err := r.Finish(0)
		return res, err
	}
	o := Options{Rates: []float64{1000, 2000}, Warmup: 50 * sim.Millisecond, Measure: 100 * sim.Millisecond, Seed: 1, Parallel: 2}
	series, errs := sweep(plainRun(leaky), []seriesSpec{{"leaky", kernel.Config{Mode: kernel.ModePolled, Quota: 5}}}, o)
	if len(errs) != 1 || errs[0].Rate != 2000 ||
		!strings.Contains(errs[0].Error(), "packet conservation violated") {
		t.Fatalf("errors = %v, want one conservation failure @2000", errs)
	}
	if p := series[0].Points[0]; p.OutputRate == 0 {
		t.Errorf("clean trial left a zero point %+v", p)
	}
	if p := series[0].Points[1]; p != (Point{}) {
		t.Errorf("failed trial left a non-zero point %+v", p)
	}
}

// TestTrialConfig pins the one Options→Config step every runner takes:
// the sweep's seed always, its core counts only when CPUs is set.
func TestTrialConfig(t *testing.T) {
	base := kernel.Config{Mode: kernel.ModePolled, Quota: 5, CPUs: 2, IRQCPUs: 1}
	if got := (Options{Seed: 9}).config(base); got.Seed != 9 || got.CPUs != 2 || got.IRQCPUs != 1 {
		t.Errorf("no CPUs override: got seed %d cpus %d irq %d, want 9 2 1", got.Seed, got.CPUs, got.IRQCPUs)
	}
	if got := (Options{Seed: 9, CPUs: 4}).config(base); got.CPUs != 4 || got.IRQCPUs != 0 {
		t.Errorf("CPUs 4: got cpus %d irq %d, want 4 0", got.CPUs, got.IRQCPUs)
	}
	var seen kernel.Config
	capture := func(cfg kernel.Config, rate float64, warmup, measure sim.Duration) (kernel.TrialResult, error) {
		seen = cfg
		return kernel.TrialResult{}, nil
	}
	sweep(plainRun(capture), []seriesSpec{{"x", base}}, Options{Rates: []float64{1}, Seed: 7, CPUs: 8, IRQCPUs: 3})
	if seen.Seed != 7 || seen.CPUs != 8 || seen.IRQCPUs != 3 {
		t.Errorf("executor trial config: seed %d cpus %d irq %d, want 7 8 3", seen.Seed, seen.CPUs, seen.IRQCPUs)
	}
}

// TestCoreAxisIgnoresCPUs pins S-2's documented exception to
// Options.CPUs: its x-axis is the core count and each series sets its
// own interrupt cores, so a -cpus/-irqcpus override must not collapse
// the series onto one IRQ split.
func TestCoreAxisIgnoresCPUs(t *testing.T) {
	o := Options{Warmup: 20 * sim.Millisecond, Measure: 50 * sim.Millisecond, Parallel: 2}
	want := runFigure(o, planSMP2)
	o.CPUs, o.IRQCPUs = 4, 1
	got := runFigure(o, planSMP2)
	var a, b bytes.Buffer
	if err := want.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := got.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("S-2 moved under -cpus 4 -irqcpus 1:\n%s\nwant\n%s", b.String(), a.String())
	}
}

// TestUserCPUFigureIgnoresCPUs pins 7-1's exception to Options.CPUs:
// its user process runs on a uniprocessor only, so under a -cpus
// override every trial used to fail validation and leave an all-zero
// figure. The override must leave the figure unchanged and error-free.
func TestUserCPUFigureIgnoresCPUs(t *testing.T) {
	o := Options{Rates: []float64{2000, 8000}, Warmup: 20 * sim.Millisecond,
		Measure: 50 * sim.Millisecond, Parallel: 2}
	want := Fig71(o)
	o.CPUs = 2
	got := Fig71(o)
	if len(got.Errors) != 0 {
		t.Fatalf("7-1 under -cpus 2: %d failed trials, first: %v", len(got.Errors), got.Errors[0])
	}
	var a, b bytes.Buffer
	if err := want.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := got.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("7-1 moved under -cpus 2:\n%s\nwant\n%s", b.String(), a.String())
	}
}
