package main

import (
	"context"
	"runtime"
	"runtime/pprof"
	"time"

	"livelock/internal/cpu"
	"livelock/internal/experiment"
)

// The traced run makes, in one process and in this order:
//
//  1. an untraced pass, the base for the counts per packet, the runtime
//     metrics and trace_overhead_frac;
//  2. a traced pass with the CPU run hooks (class shares) and a CPU
//     profile (pprof.* shares), timed like the untraced one;
//  3. an allocation-site pass with runtime.MemProfileRate = 1, kept
//     apart because recording every allocation's stack dominates the
//     CPU profile;
//  4. the isolated per-layer timings.
//
// Passes 1 and 2 each get tracedShare of the time budget.
const tracedShare = 0.4

var cpuClasses = []cpu.Class{cpu.ClassIntr, cpu.ClassSoft, cpu.ClassKernel, cpu.ClassUser, cpu.ClassClock}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func traceSim(rep *report, w *simWorkload, seed uint64, budget time.Duration) {
	phase := time.Duration(float64(budget) * tracedShare)

	// 1. Untraced.
	base := runEpisodes(w, seed, phase, nil, false)
	checkEpisodes(rep, w, seed, base)

	// 2. Traced: run hooks and a CPU profile of the steady spans.
	clock := &classClock{}
	steady := pprof.WithLabels(context.Background(), steadyLabels)
	instr := &probe{clock: clock, edge: func(begin bool) {
		if begin {
			pprof.SetGoroutineLabels(steady)
		} else {
			pprof.SetGoroutineLabels(context.Background())
		}
	}}
	prof, err := startCPUProfile()
	if err != nil {
		rep.fail(1, "%v", err)
		return
	}
	traced := runEpisodes(w, seed, phase, instr, false)
	shares, samples, err := prof.stop()
	if err != nil {
		rep.fail(1, "%v", err)
		return
	}
	checkEpisodes(rep, w, seed, traced)

	// 3. Allocation sites.
	var before map[[32]uintptr]int64
	var sites map[string]int64
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	allocEp := runEpisode(w, w.config(seed), newGauges(), &probe{edge: func(begin bool) {
		if begin {
			before = allocSites()
		} else {
			sites = attributeAllocs(before, allocSites())
		}
	}}, false)
	runtime.MemProfileRate = rate
	checkEpisodes(rep, w, seed, []*episode{allocEp})

	var tot counters
	var host time.Duration
	var gcCycles uint32
	var gcCPU, totalCPU float64
	pendingMax := 0
	var live, hostMs, tracedMs []float64
	for _, ep := range base {
		tot.add(ep.work)
		host += ep.raw.host
		gcCycles += ep.gcCycles
		gcCPU += ep.gcCPU
		totalCPU += ep.totalCPU
		pendingMax = max(pendingMax, ep.pendingMax)
		live = append(live, float64(ep.liveHeap)/(1<<20))
		hostMs = append(hostMs, ms(ep.raw.host)/simSeconds())
	}
	for _, ep := range traced {
		tracedMs = append(tracedMs, ms(ep.raw.host)/simSeconds())
	}
	// 4. Isolated layers, at the heap depth the workload ran at.
	lc := measureLayers(w, seed, pendingMax)

	simSec := simSeconds() * float64(len(base))
	sent := float64(tot.sent)
	perPkt := func(x uint64) float64 { return float64(x) / sent }
	cpus := float64(w.config(seed).CPUs)
	if cpus < 1 {
		cpus = 1
	}

	rep.set("sim.events_per_pkt", "count", perPkt(tot.events))
	rep.set("sim.ns_per_event", "ns", ratio(float64(host), float64(tot.events)))
	rep.set("sim.pending_max", "count", float64(pendingMax))
	rep.set("cpu.dispatches_per_pkt", "count", perPkt(tot.dispatches))
	rep.set("cpu.preemptions_per_pkt", "count", perPkt(tot.preemptions))
	for _, cl := range cpuClasses {
		rep.set("cpu.class."+cl.String()+".host_frac", "ratio", clock.frac(cl))
	}
	rep.set("cpu.lock_acq_per_pkt", "count", perPkt(tot.lockAcq))
	rep.set("cpu.lock_contended_frac", "ratio", ratio(float64(tot.lockContended), float64(tot.lockAcq)))
	rep.set("cpu.lock_spin_sim_frac", "ratio", tot.lockSpin.Seconds()/(simSec*cpus))
	rep.set("nic.rx_drop_frac", "ratio", perPkt(tot.rxDiscarded))
	rep.set("queue.ipintrq.drops_per_pkt", "count", perPkt(tot.ipintrqDrops))
	rep.set("queue.screendq.drops_per_pkt", "count", perPkt(tot.screendqDrops))
	rep.set("queue.outq.drops_per_pkt", "count", perPkt(tot.outqDrops))
	rep.set("core.rounds_per_pkt", "count", perPkt(tot.rounds))
	rep.set("core.rxsteps_per_round", "count", ratio(float64(tot.rxSteps), float64(tot.rounds)))
	setIsolated(rep, lc)
	setExperiment(rep, nil, 0)
	rep.set("runtime.gc_cycles_per_sim_s", "1/s", float64(gcCycles)/simSec)
	rep.set("runtime.gc_cpu_frac", "ratio", ratio(gcCPU, totalCPU))
	rep.set("runtime.heap_live_mb", "MB", median(live))
	setShares(rep, shares)
	allocSent := float64(allocEp.work.sent)
	for _, g := range allocGroups {
		rep.set("alloc."+g+".per_pkt", "count", float64(sites[g])/allocSent)
	}

	// The parts: each layer's self cost per call times its calls per
	// simulated second. Isolated timings of an upper layer include the
	// engine events and CPU dispatches it causes, so those are
	// subtracted to avoid counting them twice.
	baseMs := median(hostMs)
	cpuSelf := max(lc.postNs-lc.postEvents*lc.callbackNs, 0)
	coreSelf := max(lc.pollRoundNs-lc.roundDispatch*cpuSelf-lc.roundEvents*lc.callbackNs, 0)
	perSimS := func(calls uint64, ns float64) float64 { return float64(calls) / simSec * ns / 1e6 }
	parts := map[string]float64{
		"sim":      perSimS(tot.events, lc.callbackNs),
		"cpu":      perSimS(tot.dispatches, cpuSelf),
		"nic":      perSimS(tot.rxAccepted, lc.deliverTakeNs),
		"netstack": perSimS(tot.delivered, lc.forwardNs) + perSimS(tot.sent, lc.buildFrameNs+lc.poolGetPutNs),
		"queue":    perSimS(tot.enqueued, lc.queueOpsNs),
		"core":     perSimS(tot.rounds, coreSelf),
	}
	setParts(rep, parts, baseMs)
	rep.set("trace_overhead_frac", "ratio", median(tracedMs)/baseMs-1)

	rep.notef("traced run: untraced host_ms_per_sim_s %.4f over %d episodes, traced %.4f over %d; %d labelled CPU samples; allocation pass over %d offered packets",
		baseMs, len(base), median(tracedMs), len(traced), samples, allocEp.work.sent)
}

// attribLayers are the layers whose isolated costs add up toward the
// whole.
var attribLayers = []string{"sim", "cpu", "nic", "netstack", "queue", "core"}

// setParts reports each layer's part as a share of the whole, and what
// the parts leave over.
func setParts(rep *report, parts map[string]float64, wholeMs float64) {
	sum := 0.0
	for _, l := range attribLayers {
		rep.set("attrib."+l+".frac", "ratio", parts[l]/wholeMs)
		rep.notef("part %-8s %8.4f host ms per simulated second", l, parts[l])
		sum += parts[l]
	}
	rep.set("unattributed_frac", "ratio", 1-sum/wholeMs)
	rep.notef("parts: %.4f of %.4f host ms per simulated second attributed to isolated layer costs x call counts", sum, wholeMs)
}

func setShares(rep *report, shares map[string]float64) {
	for _, g := range profileGroups {
		rep.set("pprof."+g+".self_frac", "ratio", shares[g])
	}
}

// figureIDs lists the sweep's figures in AllFigures order.
var figureIDs = []string{"6-1", "6-3", "6-4", "6-5", "6-6", "7-1", "W-1", "S-1", "S-2", "T-1", "T-2"}

// setExperiment reports each figure's share of the figures' total wall
// time and the trial rate; both are zero outside the figure sweep.
func setExperiment(rep *report, figSeconds map[string]float64, trialsPerS float64) {
	total := 0.0
	for _, s := range figSeconds {
		total += s
	}
	for _, id := range figureIDs {
		rep.set("experiment.fig."+id+"_frac", "ratio", ratio(figSeconds[id], total))
		if s, ok := figSeconds[id]; ok {
			rep.notef("figure %-4s %8.3f s", id, s)
		}
	}
	rep.set("experiment.trials_per_s", "1/s", trialsPerS)
}

// traceSweep is the figure sweep's traced run: every figure timed on
// its own, in AllFigures order (the untraced base), a profiled sweep,
// and the isolated set-up timings. The sweep's parts are its figures,
// and the base is their sum, so unattributed_frac is zero by definition
// here. Layer counters are not observable inside AllFigures, so the
// per-packet and simulation-layer metrics read zero.
func traceSweep(rep *report, spec sweepSpec, seed uint64, golden map[string]string) {
	g := newGauges()
	runtime.GC() // as in runSweep
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, cpu0 := g.gcCPU()
	figSeconds := make(map[string]float64)
	var figs []experiment.Figure
	var figTotal float64
	trials := 0
	for _, id := range figureIDs {
		t0 := time.Now()
		f := experiment.ByID(id)(spec.options(seed))
		figSeconds[id] = time.Since(t0).Seconds()
		figTotal += figSeconds[id]
		figs = append(figs, f)
		for _, s := range f.Series {
			trials += len(s.Points)
		}
	}
	runtime.ReadMemStats(&ms1)
	gc1, cpu1 := g.gcCPU()
	digests, err := figureDigests(figs)
	if err != nil {
		rep.fail(1, "%v", err)
		return
	}
	want, _ := sweepWant(spec, seed, golden, digests)
	checkFigures(rep, figs, digests, want)

	prof, err := startCPUProfile()
	if err != nil {
		rep.fail(1, "%v", err)
		return
	}
	var profiled *sweepRun
	pprof.Do(context.Background(), steadyLabels, func(context.Context) {
		profiled, err = runSweep(spec, seed, g, false)
	})
	shares, samples, perr := prof.stop()
	if err != nil || perr != nil {
		rep.fail(1, "profiled sweep: %v %v", err, perr)
		return
	}
	checkFigures(rep, profiled.figs, profiled.digests, want)

	// Isolated timings at the polled quota-5 configuration, the sweep's
	// most common kernel; the set-up layers at every kind of router the
	// sweep builds, weighted by how many it builds.
	lc := measureLayers(findSimWorkload("fwd-polled"), seed, sweepHeapDepth)
	builds := distinctBuilds(sweepBuilds(spec))
	var newRouter, pool, audits []float64
	for _, b := range builds {
		su := measureSetupLayers(&simWorkload{cfg: b.cfg, rate: 1000}, seed)
		newRouter = append(newRouter, su.newRouterMs)
		pool = append(pool, su.poolNewMs)
		audits = append(audits, su.auditMs)
	}
	lc.newRouterMs = weightedMean(builds, newRouter)
	lc.poolNewMs = weightedMean(builds, pool)
	lc.auditMs = weightedMean(builds, audits)
	setIsolated(rep, lc)
	for _, m := range unobservable {
		rep.set(m.name, m.unit, 0)
	}
	for _, cl := range cpuClasses {
		rep.set("cpu.class."+cl.String()+".host_frac", "ratio", 0)
	}
	for _, g := range allocGroups {
		rep.set("alloc."+g+".per_pkt", "count", 0)
	}
	for _, l := range attribLayers {
		rep.set("attrib."+l+".frac", "ratio", 0)
	}
	setExperiment(rep, figSeconds, float64(trials)/figTotal)
	rep.set("runtime.gc_cycles_per_sim_s", "1/s", float64(ms1.NumGC-ms0.NumGC)/spec.simulatedSeconds(figs))
	rep.set("runtime.gc_cpu_frac", "ratio", ratio(gc1-gc0, cpu1-cpu0))
	_, live := g.heap()
	rep.set("runtime.heap_live_mb", "MB", float64(live)/(1<<20))
	setShares(rep, shares)
	// The figures are the parts and their sum is the whole.
	rep.set("unattributed_frac", "ratio", 0)
	rep.set("trace_overhead_frac", "ratio", profiled.wall.Seconds()/figTotal-1)

	rep.notef("traced sweep: base sweep_s %.3f (sum of %d figures), profiled sweep %.3f s, %d labelled CPU samples",
		figTotal, len(figSeconds), profiled.wall.Seconds(), samples)
}

// sweepHeapDepth is the engine heap depth sim.callback_ns is timed at
// for the sweep: the simulation workloads run at 6 to 9 pending events.
const sweepHeapDepth = 8

// unobservable are the per-layer counts a figure sweep cannot observe
// from outside AllFigures (every trial owns its engine and router); the
// sweep reports them as zero.
var unobservable = []struct{ name, unit string }{
	{"sim.events_per_pkt", "count"}, {"sim.ns_per_event", "ns"}, {"sim.pending_max", "count"},
	{"cpu.dispatches_per_pkt", "count"}, {"cpu.preemptions_per_pkt", "count"},
	{"cpu.lock_acq_per_pkt", "count"}, {"cpu.lock_contended_frac", "ratio"},
	{"cpu.lock_spin_sim_frac", "ratio"}, {"nic.rx_drop_frac", "ratio"},
	{"queue.ipintrq.drops_per_pkt", "count"}, {"queue.screendq.drops_per_pkt", "count"},
	{"queue.outq.drops_per_pkt", "count"}, {"core.rounds_per_pkt", "count"},
	{"core.rxsteps_per_round", "count"},
}

// setIsolated reports the isolated layer timings.
func setIsolated(rep *report, lc layerCosts) {
	rep.set("sim.callback_ns", "ns", lc.callbackNs)
	rep.set("cpu.post_ns", "ns", lc.postNs)
	rep.set("nic.deliver_take_ns", "ns", lc.deliverTakeNs)
	rep.set("netstack.forward_ns", "ns", lc.forwardNs)
	rep.set("netstack.checksum_ns", "ns", lc.checksumNs)
	rep.set("netstack.lpm_ns", "ns", lc.lpmNs)
	rep.set("netstack.build_frame_ns", "ns", lc.buildFrameNs)
	rep.set("netstack.pool_getput_ns", "ns", lc.poolGetPutNs)
	rep.set("netstack.pool_new_ms", "ms", lc.poolNewMs)
	rep.set("queue.ops_ns", "ns", lc.queueOpsNs)
	rep.set("core.poll_round_ns", "ns", lc.pollRoundNs)
	rep.set("kernel.new_router_ms", "ms", lc.newRouterMs)
	rep.set("kernel.audit_ms", "ms", lc.auditMs)
}
