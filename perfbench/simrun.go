package main

import (
	"sort"
	"time"
)

// minEpisodes keeps the medians meaningful when the time budget is
// shorter than a few episodes.
const minEpisodes = 3

// runEpisodes runs episodes of w until budget has elapsed.
func runEpisodes(w *simWorkload, seed uint64, budget time.Duration, instr *probe, calibrated bool) []*episode {
	g := newGauges()
	cfg := w.config(seed)
	deadline := time.Now().Add(budget)
	var eps []*episode
	for len(eps) < minEpisodes || time.Now().Before(deadline) {
		eps = append(eps, runEpisode(w, cfg, g, instr, calibrated))
	}
	return eps
}

// checkEpisodes counts every timed window as one attempted operation and
// fails all windows of an episode that failed an audit or its traffic
// shape, or whose output digest differs from the pinned one (default
// seed) or from the run's first episode (any other seed).
func checkEpisodes(rep *report, w *simWorkload, seed uint64, eps []*episode) {
	want, pinned := eps[0].digest, effectiveSeed(seed) == defaultSeed
	if pinned {
		want = w.golden
	}
	for i, ep := range eps {
		rep.attempted += windowsPerEpisode
		switch {
		case ep.err != nil:
			rep.fail(windowsPerEpisode, "%s episode %d: %v", w.name, i, ep.err)
		case ep.digest != want:
			rep.fail(windowsPerEpisode, "%s episode %d: output digest %s, want %s", w.name, i, ep.digest, want)
		}
	}
	rep.notef("workload %s seed %d: %d episodes of %d x %v windows, output digest %s (pinned: %v)",
		w.name, effectiveSeed(seed), len(eps), windowsPerEpisode, window, eps[0].digest, pinned)
}

// measureSim is the untraced run of a simulation workload: the
// end-to-end metrics.
func measureSim(rep *report, w *simWorkload, seed uint64, budget time.Duration) {
	eps := runEpisodes(w, seed, budget, nil, true)
	checkEpisodes(rep, w, seed, eps)
	var hostMs, rawMs, allocs, bytes, peak, setup, p50s, p99s, calib []float64
	for _, ep := range eps {
		hostMs = append(hostMs, ms(ep.ref.host)/simSeconds())
		rawMs = append(rawMs, ms(ep.raw.host)/simSeconds())
		allocs = append(allocs, float64(ep.mallocs)/float64(ep.work.sent))
		bytes = append(bytes, float64(ep.allocBytes)/float64(ep.work.sent))
		peak = append(peak, float64(ep.peakHeap)/(1<<20))
		setup = append(setup, ep.ref.setup.Seconds())
		p50s = append(p50s, ep.ref.p50)
		p99s = append(p99s, ep.ref.p99s...)
		calib = append(calib, ep.calibUs)
	}
	rep.set("host_ms_per_sim_s", "ms", median(hostMs))
	rep.set("window_p50_us", "us", median(p50s))
	rep.set("window_p99_us", "us", median(p99s))
	rep.set("allocs_per_op", "count", median(allocs))
	rep.set("bytes_per_op", "B", median(bytes))
	rep.set("peak_heap_mb", "MB", median(peak))
	rep.set("setup_s", "s", median(setup))
	rep.notef("samples: %d windows of %v simulated (window_p50_us is the median over episodes of each one's median window; window_p99_us the median over blocks of %d consecutive windows of each block's p99), %d episodes (host_ms_per_sim_s, allocs_per_op, bytes_per_op, peak_heap_mb), %d constructions (setup_s); op = one offered packet",
		len(eps)*windowsPerEpisode, window, p99Block, len(eps), len(setup))
	rep.notef("host times at the reference speed (reference slice %v); raw host_ms_per_sim_s %.4f, median reference slice %.1f us",
		calibNominal, median(rawMs), median(calib))
}

// p99Block is the number of consecutive windows each p99 is taken over:
// enough for ten windows beyond the 99th percentile. It divides
// windowsPerEpisode.
const p99Block = 1000

// blockQuantiles returns the q-quantile of each block of p99Block
// consecutive samples of xs. Host interference (the hypervisor
// descheduling the VCPU, a noisy neighbour) comes in bursts that inflate
// a tail quantile of the pooled samples; the median over blocks keeps
// the tail of the simulator's own work. xs is reordered.
func blockQuantiles(xs []float64, q float64) []float64 {
	var per []float64
	for i := 0; i+p99Block <= len(xs); i += p99Block {
		per = append(per, quantile(xs[i:i+p99Block], q))
	}
	return per
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// median of xs; xs is reordered.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile of xs; xs is reordered.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}
