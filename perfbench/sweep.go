package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"livelock/internal/experiment"
	"livelock/internal/fault"
	"livelock/internal/kernel"
	"livelock/internal/nic"
	"livelock/internal/prof"
	"livelock/internal/sim"
)

// goldenFile holds the committed SHA-256 digests of every figure's CSV
// at the golden-test settings. The benchmark reads it and never writes
// it.
const goldenFile = "testdata/golden-figures.json"

func loadGolden(root string) (map[string]string, error) {
	blob, err := os.ReadFile(filepath.Join(root, goldenFile))
	if err != nil {
		return nil, fmt.Errorf("reading golden figure digests: %w", err)
	}
	var golden map[string]string
	if err := json.Unmarshal(blob, &golden); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", goldenFile, err)
	}
	return golden, nil
}

// sweepSpec fixes the trial windows and rate axis of a sweep.
type sweepSpec struct {
	rates           []float64
	warmup, measure sim.Duration
}

// goldenSweep is the golden-test setting (benchOpts in the root
// package's tests), under which the committed digests were taken.
var goldenSweep = sweepSpec{
	rates:   []float64{1000, 2000, 3000, 4000, 5000, 6000, 8000, 10000, 12000},
	warmup:  300 * sim.Millisecond,
	measure: 1500 * sim.Millisecond,
}

func (s sweepSpec) options(seed uint64) experiment.Options {
	return experiment.Options{
		Rates:    s.rates,
		Warmup:   s.warmup,
		Measure:  s.measure,
		Seed:     seed,
		Parallel: runtime.NumCPU(),
	}
}

// mlfrrProbes is how many trials one point of figures S-1 and S-2 runs:
// experiment.MLFRR bisects offered load from [100, 14880] pps down to a
// 50 pps bracket. Those figures' golden digests pin the bisection, so
// this count cannot drift without the sweep failing its check.
const mlfrrProbes = 9

// simulatedSeconds is the steady simulated time a sweep's trials ran:
// warmup plus measurement window per trial, excluding the post-trial
// drain.
func (s sweepSpec) simulatedSeconds(figs []experiment.Figure) float64 {
	trials := 0
	for _, f := range figs {
		n := 0
		for _, ser := range f.Series {
			n += len(ser.Points)
		}
		if f.ID == "S-1" || f.ID == "S-2" {
			n *= mlfrrProbes
		}
		trials += n
	}
	return float64(trials) * (s.warmup + s.measure).Seconds()
}

// sweepRun is what one full figure sweep measured.
type sweepRun struct {
	wall time.Duration
	cpu  time.Duration // process CPU time, every worker's
	// ref are cpu and completion at the reference speed, calibUs the
	// mean reference slice; all zero in an uncalibrated sweep.
	refCPU        time.Duration
	refCompletion []float64
	calibUs       float64
	trials        int       // executor trials (figure points)
	completion    []float64 // process CPU µs between consecutive trial completions
	mallocs       uint64
	allocBytes    uint64
	heap          []float64 // heap object MB at each trial completion
	simSeconds    float64
	digests       map[string]string // figure ID -> CSV SHA-256
	figs          []experiment.Figure
}

// runSweep runs experiment.AllFigures once: its wall time, its process
// CPU time (every worker and the collector, but not time the host took
// the processors away), and the process CPU time between consecutive
// trial completions, through Options.Progress. A calibrated sweep runs
// a reference slice (see calib.go) at every trial completion, on the
// worker that completed it while the other workers go on, and leaves
// the slices' own time out of the sweep's.
func runSweep(spec sweepSpec, seed uint64, g *gauges, calibrated bool) (*sweepRun, error) {
	sr := &sweepRun{}
	o := spec.options(seed)
	var cal []float64 // the slice run at each trial completion
	last := 0.0       // ns
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	prev := processCPU()
	cpu0 := prev
	// Progress calls are serialized by the executor, and figures run
	// one after another, so this closure never runs concurrently.
	o.Progress = func(_, _ int, _ time.Duration) {
		now := processCPU()
		sr.completion = append(sr.completion, (float64(now-prev)-last)/1e3)
		prev = now
		objects, _ := g.heap()
		sr.heap = append(sr.heap, float64(objects)/(1<<20))
		if calibrated {
			last = calibrate()
			cal = append(cal, last)
		}
	}
	sr.figs = experiment.AllFigures(o)
	sr.cpu = processCPU() - cpu0
	sr.wall = time.Since(start)
	runtime.ReadMemStats(&ms1)
	if calibrated {
		sr.cpu -= time.Duration(mean(cal) * float64(len(cal)))
		// The interval before completion i lies between the slices of
		// completions i-1 and i; each is scaled by the slices of the
		// completions around it, and the sweep's time is their sum.
		for i, c := range sr.completion {
			near := cal[max(i-calibRadius, 0):min(i+calibRadius, len(cal))]
			ref := c * speed(mean(near))
			sr.refCompletion = append(sr.refCompletion, ref)
			sr.refCPU += time.Duration(ref * 1e3)
		}
		sr.calibUs = mean(cal) / 1e3
	}
	sr.mallocs = ms1.Mallocs - ms0.Mallocs
	sr.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	sr.trials = len(sr.completion)
	sr.simSeconds = spec.simulatedSeconds(sr.figs)
	var err error
	sr.digests, err = figureDigests(sr.figs)
	return sr, err
}

func figureDigests(figs []experiment.Figure) (map[string]string, error) {
	out := make(map[string]string, len(figs))
	for _, f := range figs {
		var buf bytes.Buffer
		if err := f.WriteCSV(&buf); err != nil {
			return nil, fmt.Errorf("figure %s: writing CSV: %w", f.ID, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		out[f.ID] = hex.EncodeToString(sum[:])
	}
	return out, nil
}

// checkFigures counts each figure's points as attempted operations. A
// point fails if its trial failed (a TrialError: audit or cycle-audit
// failure); every point of a figure fails if the figure's CSV digest
// differs from want.
func checkFigures(rep *report, figs []experiment.Figure, digests, want map[string]string) {
	for _, f := range figs {
		n := 0
		for _, s := range f.Series {
			n += len(s.Points)
		}
		rep.attempted += n
		switch {
		case len(f.Errors) != 0:
			rep.fail(len(f.Errors), "figure %s: %d trial errors, first: %v", f.ID, len(f.Errors), f.Errors[0])
		case digests[f.ID] != want[f.ID]:
			rep.fail(n, "figure %s: CSV digest %s, want %s", f.ID, digests[f.ID], want[f.ID])
		}
	}
	if len(want) != len(figs) {
		rep.fail(1, "sweep produced %d figures, want %d", len(figs), len(want))
	}
}

// sweepWant is the digest set a sweep of spec at seed must reproduce:
// the committed golden digests at the golden setting and the default
// seed, otherwise the digests of the run's first sweep.
func sweepWant(spec sweepSpec, seed uint64, golden, first map[string]string) (map[string]string, bool) {
	if spec.isGolden() && effectiveSeed(seed) == defaultSeed {
		return golden, true
	}
	return first, false
}

func (s sweepSpec) isGolden() bool {
	return s.warmup == goldenSweep.warmup && s.measure == goldenSweep.measure &&
		slices.Equal(s.rates, goldenSweep.rates)
}

// sweepBuild is one kind of router the figure sweep builds, and how
// many of that kind one sweep builds.
type sweepBuild struct {
	cfg      kernel.Config
	profiled bool // W-1: every router gets its own prof.Profile
	tcp      bool // T-1/T-2: a bulk TCP transfer instead of a flood
	n        int
}

// build constructs one router of the kind and starts its traffic, as
// the sweep's trial does.
func (b sweepBuild) build(seed uint64) {
	cfg := b.cfg
	cfg.Seed = seed
	if b.profiled {
		cfg.Profile = prof.New()
	}
	if !b.tcp {
		startFlood(kernel.NewRouter(sim.NewEngine(), cfg), 1000)
		return
	}
	// The T-figure transfer (tcpGoodputTrial in internal/experiment) at
	// T-2's default coalescing threshold and T-1's reorder intensity.
	// Its arms differ only in receiver flags and the sender's variant,
	// which cost nothing extra to set up.
	r := kernel.NewRouter(sim.NewEngine(), cfg)
	r.OpenTCPReceiver(8080).EnableSACK()
	r.AttachTCPSender(0, kernel.TCPSenderConfig{
		Port: 8080, MSS: 512, Variant: kernel.VariantSACK, MaxCwnd: 16, RTO: 50 * sim.Millisecond,
	}).Start()
}

// tcpConfig is the router of the T-figure transfer.
func tcpConfig() kernel.Config {
	cfg := kernel.Config{Mode: kernel.ModePolled, Quota: 5}
	cfg.NIC.Coalesce = nic.CoalesceConfig{Policy: nic.CoalesceCount, CountThresh: 8, TimerThresh: 5 * sim.Millisecond}
	cfg.Fault = fault.Config{
		DropProb: 0.02, ReorderProb: 0.05, ReorderSpan: 4,
		ReorderMode: fault.ReorderDisplace, ReorderFlush: 8 * sim.Millisecond,
	}
	return cfg
}

// sweepBuilds lists, per figure, the routers a sweep at spec builds: one
// per trial, and on S-1 and S-2 one per MLFRR probe. The configurations
// are the Fig* functions' in internal/experiment; the benchmark's tests
// check the counts against a sweep's figures.
func sweepBuilds(spec sweepSpec) map[string][]sweepBuild {
	rates := len(spec.rates)
	flood := func(cfgs ...kernel.Config) []sweepBuild {
		var bs []sweepBuild
		for _, c := range cfgs {
			bs = append(bs, sweepBuild{cfg: c, n: rates})
		}
		return bs
	}
	polled := func(quota int, screend, feedback bool) kernel.Config {
		return kernel.Config{Mode: kernel.ModePolled, Quota: quota, Screend: screend, Feedback: feedback}
	}
	unmod := kernel.Config{Mode: kernel.ModeUnmodified}
	unmodScreend := kernel.Config{Mode: kernel.ModeUnmodified, Screend: true}
	best := polled(10, true, true)
	quotas := func(screend, feedback bool) []sweepBuild {
		var cfgs []kernel.Config
		for _, q := range []int{5, 10, 20, 100, -1} {
			cfgs = append(cfgs, polled(q, screend, feedback))
		}
		return flood(cfgs...)
	}
	var userCPU []kernel.Config
	for _, th := range []float64{0.25, 0.50, 0.75, 1.00} {
		userCPU = append(userCPU, kernel.Config{Mode: kernel.ModePolled, Quota: 5, UserProcess: true, CycleLimitThreshold: th})
	}
	wasted := flood(unmod, unmodScreend, polled(5, false, false), best)
	for i := range wasted {
		wasted[i].profiled = true
	}
	// overCores builds each configuration at every core count, once per
	// MLFRR probe; irqHalf stands for "half the cores take interrupts".
	const irqHalf = -1
	overCores := func(cores []int, cfgs ...kernel.Config) []sweepBuild {
		var bs []sweepBuild
		for _, c := range cfgs {
			for _, n := range cores {
				c := c
				c.CPUs = n
				if c.IRQCPUs == irqHalf {
					c.IRQCPUs = n / 2
				}
				bs = append(bs, sweepBuild{cfg: c, n: mlfrrProbes})
			}
		}
		return bs
	}
	oneIRQ, halfIRQ := best, best
	oneIRQ.IRQCPUs, halfIRQ.IRQCPUs = 1, irqHalf
	return map[string][]sweepBuild{
		"6-1": flood(unmod, unmodScreend),
		"6-3": flood(unmod, kernel.Config{Mode: kernel.ModePolledCompat}, polled(5, false, false), polled(-1, false, false)),
		"6-4": flood(unmodScreend, polled(10, true, false), best),
		"6-5": quotas(false, false),
		"6-6": quotas(true, true),
		"7-1": flood(userCPU...),
		"W-1": wasted,
		"S-1": overCores([]int{1, 2, 4, 8}, unmodScreend, best, polled(10, false, false)),
		"S-2": overCores([]int{2, 4, 8}, best, oneIRQ, halfIRQ),
		// 6 arms x 6 coalescing thresholds; 5 arms x 5 reorder rates.
		"T-1": {{cfg: tcpConfig(), tcp: true, n: 36}},
		"T-2": {{cfg: tcpConfig(), tcp: true, n: 25}},
	}
}

// distinctBuilds merges the kinds of router that several figures build
// alike, summing their counts, in a fixed order.
func distinctBuilds(perFig map[string][]sweepBuild) []sweepBuild {
	var out []sweepBuild
	at := make(map[string]int)
	for _, id := range figureIDs {
		for _, b := range perFig[id] {
			key := fmt.Sprintf("%+v %v %v", b.cfg, b.profiled, b.tcp)
			if i, ok := at[key]; ok {
				out[i].n += b.n
				continue
			}
			at[key] = len(out)
			out = append(out, b)
		}
	}
	return out
}

// weightedMean is the mean of xs[i] weighted by the count of builds[i].
func weightedMean(builds []sweepBuild, xs []float64) float64 {
	sum, n := 0.0, 0
	for i, b := range builds {
		sum += float64(b.n) * xs[i]
		n += b.n
	}
	return sum / float64(n)
}

// sweepSetupRounds is how many times each kind of router is built.
const sweepSetupRounds = 7

// sweepSetup times every kind of router the sweep builds
// sweepSetupRounds times, from a freshly collected heap each, and
// returns the median of each kind weighted by how many of that kind one
// sweep builds: the mean set-up time of one of the sweep's routers, in
// seconds. (The kinds build at different speeds; a median over all the
// samples would sit on the boundary between two of them.) One untimed
// build per kind first grows the fresh process's heap, as the
// simulation workloads' earlier episodes do. Each timed build is scaled
// to the reference speed by the reference slices run before and after
// it (see calib.go).
func sweepSetup(spec sweepSpec, seed uint64) (float64, int) {
	builds := distinctBuilds(sweepBuilds(spec))
	medians := make([]float64, len(builds))
	for i, b := range builds {
		timeSetup(func() { b.build(seed) })
		xs := make([]float64, sweepSetupRounds)
		before := calibrate()
		for j := range xs {
			d := timeSetup(func() { b.build(seed) }).Seconds()
			after := calibrate()
			xs[j] = d * speed((before+after)/2)
			before = after
		}
		medians[i] = median(xs)
	}
	return weightedMean(builds, medians), len(builds)
}

// minSweeps keeps the sweep medians meaningful.
const minSweeps = 3

// measureSweep is the untraced run of the figure sweep: the end-to-end
// metrics.
func measureSweep(rep *report, spec sweepSpec, seed uint64, budget time.Duration, golden map[string]string) {
	setup, kinds := sweepSetup(spec, seed)
	g := newGauges()
	deadline := time.Now().Add(budget)
	var runs []*sweepRun
	for len(runs) < minSweeps || time.Now().Before(deadline) {
		sr, err := runSweep(spec, seed, g, true)
		if err != nil {
			rep.fail(1, "%v", err)
			return
		}
		runs = append(runs, sr)
	}
	want, pinned := sweepWant(spec, seed, golden, runs[0].digests)
	var hostMs, rawMs, allocs, bytes, heapMB, wall, completion, calib []float64
	for _, sr := range runs {
		checkFigures(rep, sr.figs, sr.digests, want)
		hostMs = append(hostMs, ms(sr.refCPU)/sr.simSeconds)
		rawMs = append(rawMs, ms(sr.cpu)/sr.simSeconds)
		allocs = append(allocs, float64(sr.mallocs)/float64(sr.trials))
		bytes = append(bytes, float64(sr.allocBytes)/float64(sr.trials))
		heapMB = append(heapMB, sr.heap...)
		wall = append(wall, sr.wall.Seconds())
		completion = append(completion, sr.refCompletion...)
		calib = append(calib, sr.calibUs)
	}
	rep.set("host_ms_per_sim_s", "ms", median(hostMs))
	rep.set("window_p50_us", "us", quantile(completion, 0.50))
	rep.set("window_p99_us", "us", quantile(completion, 0.99))
	rep.set("allocs_per_op", "count", median(allocs))
	rep.set("bytes_per_op", "B", median(bytes))
	// Two workers allocate concurrently, so the single highest sample
	// depends on how their garbage collections interleave; the 95th
	// percentile of the samples is the peak the sweep sustains.
	rep.set("peak_heap_mb", "MB", quantile(heapMB, 0.95))
	rep.set("setup_s", "s", setup)
	rep.notef("workload %s seed %d: %d sweeps of %d trials (%.1f simulated s each), %d workers, golden digests checked: %v",
		figureSweep, effectiveSeed(seed), len(runs), runs[0].trials, runs[0].simSeconds, runtime.NumCPU(), pinned)
	rep.notef("sweep_s (median of %d): %.3f s wall; allocs_per_trial %.0f", len(runs), median(wall), median(allocs))
	rep.notef("host times at the reference speed (reference slice %v); raw host_ms_per_sim_s %.4f, median reference slice %.1f us",
		calibNominal, median(rawMs), median(calib))
	rep.notef("samples: %d trial completions (window_p50_us, window_p99_us, peak_heap_mb), %d sweeps (host_ms_per_sim_s, allocs_per_op, bytes_per_op), %d constructions of each of the %d kinds of router the sweep builds, weighted by their counts (setup_s); op = one trial",
		len(completion), len(runs), sweepSetupRounds, kinds)
}
