package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"livelock/internal/cpu"
	"livelock/internal/kernel"
	"livelock/internal/nic"
	"livelock/internal/queue"
	"livelock/internal/sim"
	"livelock/internal/workload"
)

// An episode is one fixed-length trial in simulated time: build the
// router and start the generator (timed as set-up), warm up, run the
// steady span as fixed simulated windows (each timed on the process CPU
// clock), then stop the generator, drain, audit and digest. A
// calibrated episode also runs a reference slice (see calib.go) before
// and after the set-up and after every calibEvery windows, and scales
// each time to the reference speed by the slices on either side of it.
// Because the simulated length is fixed, every episode at one seed
// produces the same outputs, so each one can be checked against the
// pinned digest.
//
// The steady span is long enough for the collector to run several times
// on its own. A router's live heap is about 6.5 MB, mostly its buffer
// pool, so at the default GOGC a cycle starts after about that much
// allocation: every ~10 simulated seconds on fwd-polled, every ~3 on
// smp4-polled. Nothing forces a collection inside or just before the
// span, and the collector's workers share the simulation's processor
// (see run), so the windows pay for collection in proportion to what
// the span allocates.
const (
	warmup            = 300 * sim.Millisecond
	window            = 10 * sim.Millisecond
	windowsPerEpisode = 3000
	drain             = 200 * sim.Millisecond
)

// counters is a snapshot of the router's public counters, the per-layer
// work counts of an episode.
type counters struct {
	sent, delivered         uint64
	events                  uint64
	dispatches, preemptions uint64
	lockAcq, lockContended  uint64
	lockSpin                sim.Duration
	rxAccepted, rxDiscarded uint64
	enqueued                uint64
	ipintrqDrops            uint64
	screendqDrops           uint64
	outqDrops               uint64
	rounds, rxSteps         uint64
}

func snapshot(r *kernel.Router, gen *workload.Generator) counters {
	c := counters{
		sent:      gen.Sent.Value(),
		delivered: r.Delivered(),
		events:    r.Eng.Fired(),
	}
	r.VisitCPUs(func(p *cpu.CPU) {
		c.dispatches += p.Dispatches()
		c.preemptions += p.Preemptions()
	})
	ipqLock, netLock := r.Locks()
	for _, l := range []*cpu.FairLock{ipqLock, netLock} {
		if l != nil {
			c.lockAcq += l.Acquisitions()
			c.lockContended += l.Contended()
			c.lockSpin += l.SpinTime()
		}
	}
	for _, in := range r.Ins {
		c.rxAccepted += in.InPkts.Value()
		c.rxDiscarded += in.InDiscards.Value()
	}
	ipq, outq, sq := r.QueueStats()
	r.VisitPorts(func(_ int, _ *nic.NIC, q *queue.Queue) { c.enqueued += q.Enqueued.Value() })
	for _, q := range []*queue.Queue{ipq, sq} {
		if q != nil {
			c.enqueued += q.Enqueued.Value()
		}
	}
	c.ipintrqDrops, c.screendqDrops, c.outqDrops = queueDrops(ipq), queueDrops(sq), queueDrops(outq)
	if ps := r.Poller(); ps != nil {
		c.rounds, c.rxSteps = ps.Rounds, ps.RxSteps
	}
	return c
}

func (c counters) sub(o counters) counters {
	return counters{
		sent:          c.sent - o.sent,
		delivered:     c.delivered - o.delivered,
		events:        c.events - o.events,
		dispatches:    c.dispatches - o.dispatches,
		preemptions:   c.preemptions - o.preemptions,
		lockAcq:       c.lockAcq - o.lockAcq,
		lockContended: c.lockContended - o.lockContended,
		lockSpin:      c.lockSpin - o.lockSpin,
		rxAccepted:    c.rxAccepted - o.rxAccepted,
		rxDiscarded:   c.rxDiscarded - o.rxDiscarded,
		enqueued:      c.enqueued - o.enqueued,
		ipintrqDrops:  c.ipintrqDrops - o.ipintrqDrops,
		screendqDrops: c.screendqDrops - o.screendqDrops,
		outqDrops:     c.outqDrops - o.outqDrops,
		rounds:        c.rounds - o.rounds,
		rxSteps:       c.rxSteps - o.rxSteps,
	}
}

func (c *counters) add(o counters) {
	c.sent += o.sent
	c.delivered += o.delivered
	c.events += o.events
	c.dispatches += o.dispatches
	c.preemptions += o.preemptions
	c.lockAcq += o.lockAcq
	c.lockContended += o.lockContended
	c.lockSpin += o.lockSpin
	c.rxAccepted += o.rxAccepted
	c.rxDiscarded += o.rxDiscarded
	c.enqueued += o.enqueued
	c.ipintrqDrops += o.ipintrqDrops
	c.screendqDrops += o.screendqDrops
	c.outqDrops += o.outqDrops
	c.rounds += o.rounds
	c.rxSteps += o.rxSteps
}

// hostTimes are an episode's host times.
type hostTimes struct {
	setup time.Duration // NewRouter through AttachGenerator/Start
	host  time.Duration // sum of the timed windows
	// p50 is the median window, in µs; p99s are the p99 window of each
	// block of p99Block consecutive windows.
	p50  float64
	p99s []float64
}

func newHostTimes(setup float64, windows []float64) hostTimes {
	t := hostTimes{setup: time.Duration(setup)}
	for _, w := range windows {
		t.host += time.Duration(w * 1e3)
	}
	t.p99s = blockQuantiles(windows, 0.99)
	t.p50 = median(windows)
	return t
}

// episode is what one episode measured.
type episode struct {
	raw hostTimes // as measured
	// ref are the times at the reference speed, and calibUs the mean
	// reference slice; both are zero in an uncalibrated episode.
	ref        hostTimes
	calibUs    float64
	mallocs    uint64 // runtime.MemStats.Mallocs over the steady span
	allocBytes uint64 // runtime.MemStats.TotalAlloc over the steady span
	gcCycles   uint32
	gcCPU      float64 // runtime/metrics GC CPU-seconds over the steady span
	totalCPU   float64 // runtime/metrics total CPU-seconds over the steady span
	peakHeap   uint64  // heap object bytes, max over window edges
	liveHeap   uint64  // live heap after the last GC of the steady span
	pendingMax int     // Engine.Pending, max over window edges
	work       counters
	digest     string
	err        error // audit or traffic-shape failure
}

// simSeconds is the simulated length of an episode's steady span.
func simSeconds() float64 { return (windowsPerEpisode * window).Seconds() }

// gauges reads the runtime's heap and collector gauges through
// runtime/metrics, which unlike runtime.ReadMemStats does not stop the
// world, so it can run at every window edge.
type gauges struct{ s []metrics.Sample }

func newGauges() *gauges {
	return &gauges{s: []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/heap/live:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}}
}

// heap returns the bytes of heap objects, live or not yet swept, and the
// live heap as of the last collection.
func (g *gauges) heap() (objects, live uint64) {
	metrics.Read(g.s[:2])
	return g.s[0].Value.Uint64(), g.s[1].Value.Uint64()
}

// gcCPU returns the runtime's cumulative GC and total CPU-seconds. The
// runtime updates both at the end of each collection.
func (g *gauges) gcCPU() (gc, total float64) {
	metrics.Read(g.s[2:])
	return g.s[2].Value.Float64(), g.s[3].Value.Float64()
}

// probe is a traced run's instrumentation of an episode's steady span.
// Either field may be nil.
type probe struct {
	// clock is attached to every simulated CPU's run hook.
	clock *classClock
	// edge is called, outside the timed windows, just before the first
	// window (begin=true) and just after the last (begin=false).
	edge func(begin bool)
}

// runEpisode runs one episode of w at cfg. instr, when non-nil,
// instruments the steady span.
func runEpisode(w *simWorkload, cfg kernel.Config, g *gauges, instr *probe, calibrated bool) *episode {
	var clock *classClock
	if instr != nil {
		clock = instr.clock
	}
	ep := &episode{}
	windows := make([]float64, windowsPerEpisode) // µs
	// cal[k] and cal[k+1] are the reference slices on either side
	// of the k-th group of calibEvery windows.
	var preSetup float64
	var cal []float64
	// Every construction starts from a collected heap, so set-up time
	// does not depend on where the collector's cycle happens to be.
	runtime.GC()
	if calibrated {
		preSetup = calibrate()
	}
	start := processCPU()
	eng := sim.NewEngine()
	r := kernel.NewRouter(eng, cfg)
	gen := w.attach(r)
	setup := float64(processCPU() - start)
	if calibrated {
		cal = append(cal, calibrate())
	}

	eng.RunFor(warmup)
	// Latency quantiles cover the steady span only, as in
	// kernel.RunTrial.
	r.Sink.Latency.Reset()
	if clock != nil {
		clock.attach(r)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, cpu0 := g.gcCPU()
	before := snapshot(r, gen)
	if instr != nil && instr.edge != nil {
		instr.edge(true)
	}
	for i := range windows {
		if clock != nil {
			clock.begin()
		}
		t0 := processCPU()
		eng.RunFor(window)
		d := processCPU() - t0
		if clock != nil {
			clock.end()
		}
		windows[i] = float64(d) / 1e3

		if objects, _ := g.heap(); objects > ep.peakHeap {
			ep.peakHeap = objects
		}
		if p := eng.Pending(); p > ep.pendingMax {
			ep.pendingMax = p
		}
		if err := audit(r, gen); err != nil && ep.err == nil {
			ep.err = fmt.Errorf("window %d: %w", i, err)
		}
		if calibrated && (i+1)%calibEvery == 0 {
			cal = append(cal, calibrate())
		}
	}
	if instr != nil && instr.edge != nil {
		instr.edge(false)
	}
	runtime.ReadMemStats(&ms1)
	gc1, cpu1 := g.gcCPU()
	ep.gcCPU, ep.totalCPU = gc1-gc0, cpu1-cpu0
	_, ep.liveHeap = g.heap()
	if calibrated {
		ref := make([]float64, len(windows))
		for i, w := range windows {
			k := i / calibEvery
			ref[i] = w * speed((cal[k]+cal[k+1])/2)
		}
		ep.ref = newHostTimes(setup*speed((preSetup+cal[0])/2), ref)
		ep.calibUs = mean(cal) / 1e3
	}
	ep.raw = newHostTimes(setup, windows)
	ep.work = snapshot(r, gen).sub(before)
	ep.mallocs = ms1.Mallocs - ms0.Mallocs
	ep.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	ep.gcCycles = ms1.NumGC - ms0.NumGC
	if clock != nil {
		r.VisitCPUs(func(p *cpu.CPU) { p.SetRunHook(nil) })
	}

	gen.Stop()
	eng.RunFor(drain)
	if err := audit(r, gen); err != nil && ep.err == nil {
		ep.err = fmt.Errorf("after drain: %w", err)
	}
	a := r.Account()
	sent := gen.Sent.Value()
	if err := w.shape(r, outcome{a, sent, ep.work}); err != nil && ep.err == nil {
		ep.err = fmt.Errorf("traffic shape: %w", err)
	}
	ep.digest = outputDigest(r, sent, a)
	return ep
}

// audit applies the router's two conservation checks: the packet ledger
// and the per-CPU cycle ledger.
func audit(r *kernel.Router, gen *workload.Generator) error {
	if err := r.Audit(gen.Sent.Value()); err != nil {
		return err
	}
	return r.AuditCycles()
}

// classClock splits host time between the simulated CPU's task classes:
// every run-hook callback charges the host time since the previous
// callback to the class of the task that just stopped. Host time after
// the last callback of a window goes to ClassIdle.
type classClock struct {
	last time.Time
	ns   [cpu.NumClasses]time.Duration
}

func (c *classClock) attach(r *kernel.Router) {
	r.VisitCPUs(func(p *cpu.CPU) { p.SetRunHook(c.onRun) })
}

func (c *classClock) onRun(t *cpu.Task, _, _ sim.Time) {
	now := time.Now()
	c.ns[t.Class()] += now.Sub(c.last)
	c.last = now
}

func (c *classClock) begin() { c.last = time.Now() }

func (c *classClock) end() { c.ns[cpu.ClassIdle] += time.Since(c.last) }

// frac is class cl's share of all host time the clock saw.
func (c *classClock) frac(cl cpu.Class) float64 {
	var total time.Duration
	for _, d := range c.ns {
		total += d
	}
	if total == 0 {
		return 0
	}
	return float64(c.ns[cl]) / float64(total)
}
