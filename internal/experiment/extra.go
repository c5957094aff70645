package experiment

import (
	"fmt"
	"io"

	"livelock/internal/cpu"
	"livelock/internal/kernel"
	"livelock/internal/sim"
	"livelock/internal/workload"
)

// MLFRR estimates the Maximum Loss Free Receive Rate (§3) of a
// configuration by binary search: the highest offered load at which the
// router forwards at least lossTolerance of the input. It runs as one
// trial of the sweep executor. The error is the first probe's failed
// audit, or a recovered panic.
func MLFRR(cfg kernel.Config, lossTolerance float64, o Options) (float64, error) {
	ms, errs := MLFRRs([]kernel.Config{cfg}, lossTolerance, o)
	return ms[0], errs[0]
}

// MLFRRs is MLFRR of each of cfgs, run as one plan: the bisections
// share the executor's worker pool, each distinct configuration once.
// errs[i] is cfgs[i]'s error, as MLFRR returns it.
func MLFRRs(cfgs []kernel.Config, lossTolerance float64, o Options) (ms []float64, errs []error) {
	o = o.withDefaults(nil)
	reqs := make([]request, len(cfgs))
	for i, cfg := range cfgs {
		reqs[i] = o.mlfrr(o.config(cfg), lossTolerance, 0)
	}
	g := group(reqs)
	pts, trialErrs := g.execute(runTrial, o)
	ms, errs = make([]float64, len(cfgs)), make([]error, len(cfgs))
	for i, k := range g.which {
		ms[i], errs[i] = pts[k].OutputRate, trialErrs[k]
	}
	return ms, errs
}

// mlfrr is MLFRR's bisection over probes of cfg as given.
func mlfrr(cfg kernel.Config, lossTolerance float64, warmup, measure sim.Duration) (float64, error) {
	return bisect(func(rate float64) (bool, error) {
		pass, _, err := probe(cfg, rate, lossTolerance, warmup, measure, true)
		return pass, err
	})
}

// bisect narrows the offered load between 100 pkts/s and the wire rate
// to a 50 pkts/s bracket by asking pass at each midpoint, and returns
// the bracket's middle.
func bisect(pass func(rate float64) (bool, error)) (float64, error) {
	lo, hi := 100.0, float64(14880)
	for hi-lo > 50 {
		mid := (lo + hi) / 2
		ok, err := pass(mid)
		if err != nil {
			return 0, fmt.Errorf("MLFRR probe at %.0f pkts/s: %w", mid, err)
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// probeStep is the simulated time between an MLFRR probe's checks of
// whether its verdict is already fixed.
const probeStep = 10 * sim.Millisecond

// probeJitter is the probe generator's gap jitter, kernel.RunTrial's.
const probeJitter = 0.05

// probe runs kernel.RunTrial's trial of cfg at rate and reports whether
// the router forwarded at least lossTolerance of the offered load over
// the window (pass), with RunTrial's rates and comparison. The window
// runs in probeStep steps. Engine.Run fires only events at or before
// its bound, so the steps fire the same events in the same order as one
// run. With early set, the probe stops after the first step at which
// it cannot pass (cut); passing probes run the whole window. Every
// probe, cut or not, stops its generator, drains for 200 ms and audits
// through Finish.
func probe(cfg kernel.Config, rate, lossTolerance float64, warmup, measure sim.Duration, early bool) (pass, cut bool, err error) {
	r := kernel.NewRouter(sim.NewEngine(), cfg)
	r.AttachGenerator(0, workload.ConstantRate{Rate: rate, JitterFrac: probeJitter}, 0).Start()
	r.Measure(warmup, 0)
	offered, delivered := r.Offered(), r.Delivered()
	// A frame the fault plane duplicates or drops after transmission
	// breaks the bound below, so only a fault-free probe may stop.
	early = early && !cfg.Fault.Enabled()
	end := r.Eng.Now().Add(measure)
	for r.Eng.Now() < end {
		r.Eng.RunFor(min(probeStep, end.Sub(r.Eng.Now())))
		if early && cannotPass(r, offered, delivered, rate, lossTolerance, end.Sub(r.Eng.Now())) {
			cut = true
			break
		}
	}
	var in, out float64
	if s := measure.Seconds(); s > 0 && !cut {
		in = float64(r.Offered()-offered) / s
		out = float64(r.Delivered()-delivered) / s
	}
	_, err = r.Finish(200 * sim.Millisecond)
	return !cut && out >= lossTolerance*in, cut, err
}

// cannotPass reports whether a probe window that began with offered
// and delivered frames, and has left to run, must forward less than
// lossTolerance of its offered load. At best, every frame not yet
// dropped leaves the output interface by the window's end, and so does
// every frame the generator can still emit: the remaining time over the
// shortest jittered gap, plus slack for the frame at the window's end
// and the gap's rounding.
func cannotPass(r *kernel.Router, offered, delivered uint64, rate, lossTolerance float64, left sim.Duration) bool {
	a := r.Account()
	now := r.Offered()
	reachable := float64(now+a.Originated+a.Duplicated) - float64(a.Dropped()) - float64(delivered)
	minGap := (1-probeJitter)*float64(sim.PerSecond(rate)) - 1
	toCome := float64(left)/minGap + 2
	return reachable+(1-lossTolerance)*toCome-lossTolerance*float64(now-offered) < 0
}

// window measures r over one window and finishes the run with no
// drain. A zero drain runs no event, so the caller reads the router as
// the window left it.
func window(r *kernel.Router, warmup, measure sim.Duration) (kernel.TrialResult, error) {
	res := r.Measure(warmup, measure)
	_, err := r.Finish(0)
	return res, err
}

// LatencyPoint is one burst-latency measurement.
type LatencyPoint struct {
	BurstLen   int
	FirstPkt   sim.Duration // latency of the first packet of a burst
	MedianPkt  sim.Duration
	WorstPkt   sim.Duration
	OutputRate float64
}

// BurstLatency measures §4.3's receive-latency-under-burst effect: the
// first packet of a wire-speed burst is delayed behind link-level
// processing of the burst in the interrupt-driven kernel, but not in the
// polled kernel. The minimum observed latency isolates the
// first-of-burst packet because every burst is identical.
func BurstLatency(mode kernel.Mode, burstLen int, o Options) (LatencyPoint, error) {
	o = o.withDefaults(nil)
	r := kernel.NewRouter(sim.NewEngine(), o.config(kernel.Config{Mode: mode, Quota: 5}))
	on := sim.Duration(burstLen) * sim.PerSecond(14880)
	burst := &workload.Burst{PeakRate: 14880, On: on, Off: 50 * sim.Millisecond}
	r.AttachGenerator(0, burst, 0).Start()
	// Every burst is identical, so the warmup's bursts count too: the
	// whole run is the window.
	res, err := window(r, 0, o.Warmup+o.Measure)
	lat := r.Sink.Latency
	return LatencyPoint{
		BurstLen:   burstLen,
		FirstPkt:   lat.Min(),
		MedianPkt:  res.LatencyP50,
		WorstPkt:   lat.Max(),
		OutputRate: res.OutputRate,
	}, err
}

// WriteBurstLatencyTable renders the §4.3 latency comparison for
// several burst lengths.
func WriteBurstLatencyTable(w io.Writer, o Options) error {
	if _, err := fmt.Fprintln(w, "Receive latency under bursts (§4.3): first-of-burst packet latency"); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %-28s %-28s\n", "burst", "unmodified (first/median)", "polled (first/median)")
	for _, n := range []int{1, 5, 10, 20, 32} {
		var pt [2]LatencyPoint // unmodified, polled
		for i, mode := range []kernel.Mode{kernel.ModeUnmodified, kernel.ModePolled} {
			var err error
			if pt[i], err = BurstLatency(mode, n, o); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "%-10d %-12v %-15v %-12v %-15v\n",
			n, pt[0].FirstPkt, pt[0].MedianPkt, pt[1].FirstPkt, pt[1].MedianPkt)
	}
	return nil
}

// StarvationResult summarizes the §4.4 transmit-starvation demonstration.
type StarvationResult struct {
	OutputRate    float64
	OutQueueDrops uint64
	WireIdle      bool // transmitter idle while packets queued (starved)
}

// TransmitStarvation demonstrates §4.4/§6.6: with no quota, the polled
// kernel's input callback monopolizes the CPU, transmit descriptors are
// never reclaimed, and the transmitter goes idle while the output queue
// overflows.
func TransmitStarvation(o Options) (StarvationResult, error) {
	o = o.withDefaults(nil)
	r := kernel.NewRouter(sim.NewEngine(), o.config(kernel.Config{Mode: kernel.ModePolled, Quota: -1}))
	r.AttachGenerator(0, workload.ConstantRate{Rate: 12000, JitterFrac: 0.05}, 0).Start()
	res, err := window(r, o.Warmup, o.Measure)
	_, outq, _ := r.QueueStats()
	return StarvationResult{
		OutputRate:    res.OutputRate,
		OutQueueDrops: outq.Drops.Value(),
		WireIdle:      r.Out.TxDescriptorsFree() == 0,
	}, err
}

// ClockedPoint is one measurement of the §8 "clocked interrupts"
// (periodic polling) alternative at a fixed poll interval.
type ClockedPoint struct {
	Interval sim.Duration
	// IdleOverheadPct is the CPU spent polling with zero offered load —
	// "too high [a frequency], and the system spends all its time
	// polling".
	IdleOverheadPct float64
	// LatencyP50 is the median forwarding latency at light load (500
	// pkts/s) — "too low, and the receive latency soars".
	LatencyP50 sim.Duration
	// Throughput is the forwarding rate under a 12,000 pkts/s flood.
	Throughput float64
}

// ClockedPollingSweep measures the periodic-polling design across poll
// intervals, reproducing §8's critique of Traw & Smith's clocked
// interrupts and motivating the paper's hybrid (interrupt-initiated
// polling) instead.
func ClockedPollingSweep(intervals []sim.Duration, o Options) ([]ClockedPoint, error) {
	o = o.withDefaults(nil)
	var out []ClockedPoint
	for _, iv := range intervals {
		cfg := o.config(kernel.Config{Mode: kernel.ModePolled, Quota: 5, ClockedPollInterval: iv})

		// Idle overhead: run with no traffic and measure non-idle,
		// non-clock CPU (the polling tax).
		r := kernel.NewRouter(sim.NewEngine(), cfg)
		if _, err := window(r, 0, o.Measure); err != nil {
			return nil, err
		}
		idleTax := r.CPU.Utilization()[cpu.ClassKernel]

		lat, thr, err := latencyAndThroughput(cfg, o)
		if err != nil {
			return nil, err
		}
		out = append(out, ClockedPoint{
			Interval:        iv,
			IdleOverheadPct: idleTax * 100,
			LatencyP50:      lat.LatencyP50,
			Throughput:      thr.OutputRate,
		})
	}
	return out, nil
}

// latencyAndThroughput runs cfg at the clocked-polling table's light
// load (500 pkts/s, for latency) and its flood (12,000 pkts/s, for
// throughput).
func latencyAndThroughput(cfg kernel.Config, o Options) (lat, thr kernel.TrialResult, err error) {
	if lat, err = kernel.RunTrial(cfg, 500, o.Warmup, o.Measure); err != nil {
		return lat, thr, err
	}
	thr, err = kernel.RunTrial(cfg, 12000, o.Warmup, o.Measure)
	return lat, thr, err
}

// WriteClockedTable renders the clocked-polling sweep.
func WriteClockedTable(w io.Writer, o Options) error {
	if _, err := fmt.Fprintln(w, "Clocked (periodic) polling, §8: interval trade-off"); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %16s %18s %18s\n",
		"interval", "idle poll CPU %", "p50 latency @500", "output @12000")
	intervals := []sim.Duration{
		100 * sim.Microsecond, 250 * sim.Microsecond, sim.Millisecond,
		4 * sim.Millisecond, 16 * sim.Millisecond,
	}
	points, err := ClockedPollingSweep(intervals, o)
	if err != nil {
		return err
	}
	for _, p := range points {
		fmt.Fprintf(w, "%-12v %16.2f %18v %18.0f\n",
			p.Interval, p.IdleOverheadPct, p.LatencyP50, p.Throughput)
	}
	// The paper's hybrid for comparison.
	o = o.withDefaults(nil)
	lat, thr, err := latencyAndThroughput(o.config(kernel.Config{Mode: kernel.ModePolled, Quota: 5}), o)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %16.2f %18v %18.0f\n",
		"hybrid", 0.0, lat.LatencyP50, thr.OutputRate)
	return nil
}

// FairnessResult reports per-input delivered counts for the round-robin
// fairness property (§5.2: "fairly allocate resources among event
// sources").
type FairnessResult struct {
	PerInput []uint64
	Total    uint64
}

// Imbalance returns max/min of the per-input shares (1.0 = perfectly
// fair).
func (f FairnessResult) Imbalance() float64 {
	if len(f.PerInput) == 0 {
		return 1
	}
	min, max := f.PerInput[0], f.PerInput[0]
	for _, v := range f.PerInput {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if min == 0 {
		return float64(max)
	}
	return float64(max) / float64(min)
}

// Fairness floods a router from n input interfaces simultaneously and
// reports how deliveries divide among them. The polled kernel's
// round-robin should split capacity nearly evenly; rates are each
// per-input offered loads.
func Fairness(mode kernel.Mode, quota int, n int, rate float64, o Options) (FairnessResult, error) {
	o = o.withDefaults(nil)
	r := kernel.NewRouter(sim.NewEngine(), o.config(kernel.Config{Mode: mode, Quota: quota, InputNICs: n}))
	for i := 0; i < n; i++ {
		r.AttachGenerator(i, workload.ConstantRate{Rate: rate, JitterFrac: 0.05}, 0).Start()
	}
	// Count deliveries per source by sampling input-NIC accepted counts
	// net of their ring drops: every packet accepted into a ring is
	// either processed or still queued, so processed ≈ InPkts - RxLen.
	_, err := window(r, o.Warmup, o.Measure)
	res := FairnessResult{}
	for i := 0; i < n; i++ {
		in := r.Ins[i]
		processed := in.InPkts.Value() - uint64(in.RxLen())
		res.PerInput = append(res.PerInput, processed)
		res.Total += processed
	}
	return res, err
}

// TCPPoint is one measurement of §7.1's unmeasured experiment: TCP bulk
// goodput into the router host while a UDP flood arrives on another
// interface.
type TCPPoint struct {
	FloodRate   float64
	GoodputBps  float64 // application bytes/second delivered in order
	Retransmits uint64
	Timeouts    uint64
}

// TCPUnderFlood measures Tahoe bulk-transfer goodput against a
// competing flood for one kernel mode. It ignores Options.CPUs: the
// in-kernel TCP receiver runs on one CPU only.
func TCPUnderFlood(mode kernel.Mode, floodRates []float64, o Options) ([]TCPPoint, error) {
	o = o.withDefaults(nil)
	o.CPUs = 0
	var out []TCPPoint
	for _, rate := range floodRates {
		r := kernel.NewRouter(sim.NewEngine(), o.config(kernel.Config{Mode: mode, Quota: 5, InputNICs: 2}))
		rx := r.OpenTCPReceiver(8080)
		snd := r.AttachTCPSender(0, kernel.TCPSenderConfig{Port: 8080, MSS: 512})
		if rate > 0 {
			r.AttachGenerator(1, workload.ConstantRate{Rate: rate, JitterFrac: 0.05}, 0).Start()
		}
		snd.Start()
		goodput, err := goodputWindow(r, rx, o.Warmup, o.Measure)
		if err != nil {
			return nil, err
		}
		out = append(out, TCPPoint{
			FloodRate:   rate,
			GoodputBps:  float64(goodput) / o.Measure.Seconds(),
			Retransmits: snd.Retransmits.Value(),
			Timeouts:    snd.Timeouts.Value(),
		})
	}
	return out, nil
}

// goodputWindow is window for a TCP transfer: it returns the in-order
// bytes rx delivered inside the window.
func goodputWindow(r *kernel.Router, rx *kernel.TCPReceiver, warmup, measure sim.Duration) (uint64, error) {
	r.Measure(warmup, 0) // the warmup alone: the window starts here
	start := rx.GoodputBytes
	_, err := window(r, 0, measure)
	return rx.GoodputBytes - start, err
}

// WriteTCPTable renders the §7.1 experiment for both kernels.
func WriteTCPTable(w io.Writer, o Options) error {
	if _, err := fmt.Fprintln(w,
		"TCP bulk transfer into the router host vs background UDP flood (§7.1):"); err != nil {
		return err
	}
	rates := []float64{0, 4000, 8000, 12000}
	fmt.Fprintf(w, "%-12s %22s %22s\n", "flood pps", "unmodified goodput", "polled goodput")
	unmod, err := TCPUnderFlood(kernel.ModeUnmodified, rates, o)
	if err != nil {
		return err
	}
	polled, err := TCPUnderFlood(kernel.ModePolled, rates, o)
	if err != nil {
		return err
	}
	for i := range rates {
		fmt.Fprintf(w, "%-12.0f %18.0f B/s %18.0f B/s\n",
			rates[i], unmod[i].GoodputBps, polled[i].GoodputBps)
	}
	return nil
}
