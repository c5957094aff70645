// Command lksim runs a single router simulation with every knob exposed
// as a flag and prints a detailed report: throughput, latency, CPU
// utilization by class, queue statistics, and the packet-conservation
// accounting.
//
// Examples:
//
//	lksim -mode polled -quota 5 -rate 12000
//	lksim -mode unmodified -screend -rate 7000
//	lksim -mode polled -quota 5 -user -cyclelimit 0.5 -rate 10000
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"livelock"
	"livelock/internal/cpu"
	"livelock/internal/runflags"
)

// newRouter builds the simulated router; tests replace it.
var newRouter = livelock.NewRouter

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lksim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("lksim", flag.ContinueOnError)
	fs.SetOutput(w)
	rf := runflags.Bind(fs)
	poisson := fs.Bool("poisson", false, "Poisson arrivals instead of jittered constant rate")
	warmup := fs.Duration("warmup", 500*time.Millisecond, "simulated warmup")
	measure := fs.Duration("measure", 3*time.Second, "simulated measurement window")
	timeline := fs.String("timeline", "", "record a sampled time-series of the run (incl. warmup) to this CSV file")
	tlInterval := fs.Duration("timeline-interval", 10*time.Millisecond, "sampling interval for -timeline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, rate, err := rf.Config()
	if err != nil {
		return err
	}

	var reg *livelock.MetricsRegistry
	if *timeline != "" {
		reg = livelock.NewMetricsRegistry()
		cfg.Metrics = reg
	}

	eng := livelock.NewEngine()
	r := newRouter(eng, cfg)
	var arrival livelock.Arrival = livelock.ConstantRate{Rate: rate, JitterFrac: 0.05}
	if *poisson {
		arrival = livelock.Poisson{Rate: rate}
	}
	gen := r.AttachGenerator(0, arrival, 0)
	gen.Start()

	var sampler *livelock.Sampler
	if reg != nil {
		if err := reg.Counter("gen.sent", gen.Sent); err != nil {
			return err
		}
		sampler = livelock.NewSampler(eng, reg, livelock.Duration(tlInterval.Nanoseconds()))
		sampler.Start()
	}

	// Rates and latency cover the measurement window only.
	res := r.Measure(livelock.Duration(warmup.Nanoseconds()), livelock.Duration(measure.Nanoseconds()))

	fmt.Fprintf(w, "kernel: %v  screend=%v feedback=%v quota=%d cycle-limit=%.2f\n",
		cfg.Mode, cfg.Screend, cfg.Feedback, cfg.Quota, cfg.CycleLimitThreshold)
	fmt.Fprintf(w, "offered:   %8.0f pkts/sec (measured %.0f)\n", rate, res.InputRate)
	fmt.Fprintf(w, "forwarded: %8.0f pkts/sec\n", res.OutputRate)
	if cfg.UserProcess {
		fmt.Fprintf(w, "user CPU:  %8.1f %%\n", 100*res.UserCPUFrac)
	}
	lat := r.Sink.Latency
	fmt.Fprintf(w, "latency:   p50=%v p99=%v max=%v (n=%d)\n",
		lat.Quantile(0.5), lat.Quantile(0.99), lat.Max(), lat.Count())

	fmt.Fprintln(w, "\nCPU utilization:")
	util := r.CPU.Utilization()
	for cl := cpu.Class(0); cl < cpu.NumClasses; cl++ {
		fmt.Fprintf(w, "  %-8s %6.2f %%\n", cl, 100*util[cl])
	}
	if cfg.CPUs > 1 {
		elapsed := eng.Now().Sub(livelock.Time(0)).Seconds()
		fmt.Fprintln(w, "\nper-core busy:")
		r.VisitCPUs(func(c *cpu.CPU) {
			fmt.Fprintf(w, "  cpu%-5d %6.2f %%\n", c.ID(), 100*c.BusyTime().Seconds()/elapsed)
		})
		ipq, net := r.Locks()
		fmt.Fprintln(w, "\nshared-queue locks:")
		for _, l := range []*cpu.FairLock{ipq, net} {
			fmt.Fprintf(w, "  %-8s acquisitions=%d contended=%d spin=%v maxspin=%v\n",
				l.Name(), l.Acquisitions(), l.Contended(), l.SpinTime(), l.MaxSpin())
		}
	}

	// Drain, account and audit.
	a, auditErr := r.Finish(500 * livelock.Millisecond)
	fmt.Fprintln(w, "\npacket accounting:")
	fmt.Fprintf(w, "  generated        %10d\n", r.Offered())
	fmt.Fprintf(w, "  delivered        %10d\n", a.Delivered)
	fmt.Fprintf(w, "  ring drops       %10d (cheap, pre-CPU)\n", a.RingDrops)
	fmt.Fprintf(w, "  ipintrq drops    %10d (device work wasted)\n", a.IPIntrQDrops)
	fmt.Fprintf(w, "  screendq drops   %10d (kernel work wasted)\n", a.ScreendDrops)
	fmt.Fprintf(w, "  outq drops       %10d (all work wasted)\n", a.OutQueueDrops)
	fmt.Fprintf(w, "  filter rejects   %10d\n", a.FilterDrops)
	fmt.Fprintf(w, "  forward errors   %10d\n", a.FwdErrors)
	fmt.Fprintf(w, "  malformed        %10d\n", a.Malformed)
	if cfg.Fault.Enabled() {
		fmt.Fprintf(w, "  bad checksums    %10d (fault: corrupted)\n", a.BadChecksums)
		fmt.Fprintf(w, "  truncated        %10d (fault: cut short)\n", a.Truncated)
		fmt.Fprintf(w, "  wire drops       %10d (fault: lost in transit)\n", a.WireDrops)
		fmt.Fprintf(w, "  stall drops      %10d (fault: device stalled)\n", a.StallDrops)
		fmt.Fprintf(w, "  reset drops      %10d (fault: rx ring reset)\n", a.ResetDrops)
		fmt.Fprintf(w, "  duplicated       %10d (fault: extra copies)\n", a.Duplicated)
		fmt.Fprintf(w, "  reordered        %10d (fault: displaced, not lost)\n", r.Fault().Reordered.Value())
	}
	fmt.Fprintf(w, "  still buffered   %10d\n", a.Alive)
	if auditErr != nil {
		return auditErr
	}
	fmt.Fprintln(w, "  conservation     OK")
	fmt.Fprintln(w, "  cycle ledger     OK (every core)")

	if ps := r.Poller(); ps != nil {
		fmt.Fprintf(w, "\npoller: wakeups=%d rounds=%d rx=%d tx=%d feedback(inhibits=%d timeouts=%d) cycle(inhibits=%d)\n",
			ps.Wakeups, ps.Rounds, ps.RxSteps, ps.TxSteps,
			ps.FeedbackInhibits, ps.FeedbackTimeouts, ps.CycleInhibits)
	}

	if sampler != nil {
		sampler.Flush()
		sampler.Stop()
		f, err := os.Create(*timeline)
		if err != nil {
			return err
		}
		if err := sampler.Series().WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "\ntimeline: wrote %s\n", *timeline)
	}
	return nil
}
