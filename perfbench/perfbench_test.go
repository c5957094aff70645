package main

import (
	"encoding/json"
	"os"
	"testing"

	"livelock/internal/sim"
)

// The short mode runs every workload for the minimum number of episodes
// or sweeps (a zero time budget), with the figure sweep on a reduced
// axis. Run with: cd perfbench && go test ./...

var shortSweep = sweepSpec{
	rates:   []float64{2000, 10000},
	warmup:  50 * sim.Millisecond,
	measure: 100 * sim.Millisecond,
}

var allWorkloads = []string{"fwd-polled", "livelock-unmodified", "smp4-polled", figureSweep}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func shortRun(t *testing.T, name string, seed uint64, trace bool) *report {
	t.Helper()
	rep, err := run(name, seed, 0, trace, "..", shortSweep)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestShortRunsReportEveryMetric checks, for every workload in both
// modes, that the run is correct (audits, traffic-shape assertions,
// digests), attempted work, and reported exactly the metrics
// BENCHMARK.json names, each with its unit.
func TestShortRunsReportEveryMetric(t *testing.T) {
	b := loadBenchmarkFile(t)
	if len(b.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(allWorkloads))
	}
	for i, w := range b.Workloads {
		if w.Name != allWorkloads[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, allWorkloads[i])
		}
	}
	for _, name := range allWorkloads {
		for _, trace := range []bool{false, true} {
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			rep := shortRun(t, name, defaultSeed, trace)
			if rep.failed != 0 || len(rep.problems) != 0 || rep.attempted == 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d: %v", name, trace, rep.attempted, rep.failed, rep.problems)
			}
			if len(rep.metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", name, trace, len(rep.metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %s, BENCHMARK.json says %s", name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestSimulatedDigestsRepeat checks that two runs at one non-default
// seed simulate identical outputs.
func TestSimulatedDigestsRepeat(t *testing.T) {
	const seed = 5
	for _, w := range simWorkloads {
		a := runEpisodes(w, seed, 0, nil, false)
		b := runEpisodes(w, seed, 0, nil, false)
		if a[0].digest != b[0].digest {
			t.Errorf("%s: digests %s and %s differ between runs", w.name, a[0].digest, b[0].digest)
		}
		if a[0].digest == w.golden {
			t.Errorf("%s: seed %d reproduced the default seed's digest", w.name, seed)
		}
	}
	g := newGauges()
	a, err := runSweep(shortSweep, seed, g, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSweep(shortSweep, seed, g, false)
	if err != nil {
		t.Fatal(err)
	}
	for id, d := range a.digests {
		if b.digests[id] != d {
			t.Errorf("figure %s: CSV digests %s and %s differ between runs", id, d, b.digests[id])
		}
	}
}

// TestSweepBuildsMatchFigures checks that the sweep's set-up weights
// count the routers a sweep builds: one per figure point, and one per
// MLFRR probe on S-1 and S-2.
func TestSweepBuildsMatchFigures(t *testing.T) {
	sr, err := runSweep(shortSweep, defaultSeed, newGauges(), false)
	if err != nil {
		t.Fatal(err)
	}
	builds := sweepBuilds(shortSweep)
	if len(builds) != len(sr.figs) {
		t.Errorf("set-up weights cover %d figures, the sweep has %d", len(builds), len(sr.figs))
	}
	for _, f := range sr.figs {
		routers := 0
		for _, s := range f.Series {
			routers += len(s.Points)
		}
		if f.ID == "S-1" || f.ID == "S-2" {
			routers *= mlfrrProbes
		}
		n := 0
		for _, b := range builds[f.ID] {
			n += b.n
		}
		if n != routers {
			t.Errorf("figure %s: set-up weights count %d routers, the sweep builds %d", f.ID, n, routers)
		}
	}
}

// TestDigestMismatchFails checks that a run whose outputs differ from
// the pinned digest counts every window of the episode as failed.
func TestDigestMismatchFails(t *testing.T) {
	w := *simWorkloads[0]
	w.golden = "0000000000000000"
	rep := newReport()
	checkEpisodes(rep, &w, defaultSeed, runEpisodes(&w, defaultSeed, 0, nil, false))
	if rep.failed != rep.attempted || rep.attempted == 0 {
		t.Errorf("attempted %d, failed %d; want every window failed", rep.attempted, rep.failed)
	}
}

// TestShapeCatchesWrongWorkload checks the traffic-shape assertions
// reject a workload run at another workload's configuration.
func TestShapeCatchesWrongWorkload(t *testing.T) {
	fwd, livelock := *findSimWorkload("fwd-polled"), findSimWorkload("livelock-unmodified")
	fwd.cfg, fwd.rate = livelock.cfg, livelock.rate
	ep := runEpisode(&fwd, fwd.config(defaultSeed), newGauges(), nil, false)
	if ep.err == nil {
		t.Error("fwd-polled shape accepted a livelocked router")
	}
}

func TestGroupOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"livelock/internal/sim.(*Engine).Run", "main.runEpisode"}, "sim"},
		{[]string{"livelock/internal/prof.(*Profile).Invest"}, "other"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "livelock/internal/core.(*Poller).step"}, "runtime.malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.nextFreeFast", "runtime.gcAssistAlloc", "runtime.mallocgc"}, "runtime.gc"},
		{[]string{"runtime.mapaccess1"}, "other"},
	} {
		if got := groupOf(tc.stack); got != tc.want {
			t.Errorf("groupOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

// TestReferenceSlicesLeaveTheRunAlone checks that the reference
// computation allocates nothing, so it cannot change the collector's
// work, and that a calibrated episode simulates exactly what an
// uncalibrated one does while reporting its times at the reference
// speed.
func TestReferenceSlicesLeaveTheRunAlone(t *testing.T) {
	if n := testing.AllocsPerRun(10, func() { calibrate() }); n != 0 {
		t.Errorf("a reference slice allocates %v times, want 0", n)
	}
	w := findSimWorkload("fwd-polled")
	plain := runEpisode(w, w.config(defaultSeed), newGauges(), nil, false)
	cal := runEpisode(w, w.config(defaultSeed), newGauges(), nil, true)
	if plain.digest != cal.digest {
		t.Errorf("calibrated episode digest %s, uncalibrated %s", cal.digest, plain.digest)
	}
	if plain.ref.host != 0 || plain.calibUs != 0 {
		t.Errorf("uncalibrated episode reports reference times: %+v, slice %v us", plain.ref, plain.calibUs)
	}
	if cal.ref.host <= 0 || cal.ref.setup <= 0 || cal.ref.p50 <= 0 || len(cal.ref.p99s) == 0 || cal.calibUs <= 0 {
		t.Errorf("calibrated episode: reference times %+v, slice %v us", cal.ref, cal.calibUs)
	}
}
