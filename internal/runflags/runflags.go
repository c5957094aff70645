// Package runflags binds the command-line flags that describe one
// simulated router run (kernel mode, offered load, screend, feedback,
// cycle limit, SMP shape, the fault plane and interrupt coalescing)
// and turns them into a validated kernel.Config. lksim and lkstat both
// use it, so the run commands share one flag set with one set of
// defaults: the unmodified kernel at 8,000 pkts/sec.
package runflags

import (
	"flag"
	"fmt"
	"time"

	"livelock/internal/fault"
	"livelock/internal/kernel"
	"livelock/internal/nic"
	"livelock/internal/sim"
)

// Flags holds the bound flag values until Config reads them. Flags
// whose type matches their kernel.Config field write it directly;
// strings and durations are converted by Config.
type Flags struct {
	cfg  kernel.Config
	rate float64

	mode, coalesce, reorderMode string

	reorderFlush, stall, stallPeriod, pause, pausePeriod, coalesceTimer time.Duration
}

// Bind registers the run flags on fs.
func Bind(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	c, fc := &f.cfg, &f.cfg.Fault
	fs.StringVar(&f.mode, "mode", "unmodified", "kernel mode: unmodified, compat, polled")
	fs.Float64Var(&f.rate, "rate", 8000, "offered load (pkts/sec)")
	fs.IntVar(&c.Quota, "quota", 5, "poll callback quota; -1 = unlimited")
	fs.BoolVar(&c.Screend, "screend", false, "insert the screend user-mode filter")
	fs.IntVar(&c.ScreendRules, "rules", 1, "screend rule-list length")
	fs.BoolVar(&c.Feedback, "feedback", false, "enable screend queue-state feedback")
	fs.Float64Var(&c.CycleLimitThreshold, "cyclelimit", 0, "cycle-limit threshold in (0,1); 0 = off")
	fs.BoolVar(&c.UserProcess, "user", false, "run a compute-bound user process")
	fs.Uint64Var(&c.Seed, "seed", 1, "simulation seed")
	fs.IntVar(&c.CPUs, "cpus", 1, "virtual CPUs (>1 enables IRQ steering and shared-queue locks)")
	fs.IntVar(&c.IRQCPUs, "irqcpus", 0, "polled SMP: cores dedicated to interrupt handling (< cpus)")
	fs.Float64Var(&fc.DropProb, "fault-drop", 0, "wire fault: per-frame drop probability")
	fs.Float64Var(&fc.TruncateProb, "fault-truncate", 0, "wire fault: per-frame truncation probability")
	fs.Float64Var(&fc.CorruptProb, "fault-corrupt", 0, "wire fault: per-frame bit-corruption probability")
	fs.Float64Var(&fc.DupProb, "fault-dup", 0, "wire fault: per-frame duplication probability")
	fs.Float64Var(&fc.DelayProb, "fault-delay", 0, "wire fault: per-frame extra-delay probability (reordering)")
	fs.Float64Var(&fc.ReorderProb, "fault-reorder", 0, "wire fault: per-frame reorder-hold probability")
	fs.IntVar(&fc.ReorderSpan, "fault-reorder-span", 0, "wire fault: frames a held frame is displaced past (0 = default 3)")
	fs.StringVar(&f.reorderMode, "fault-reorder-mode", "displace", "wire fault: reorder model, displace or swap")
	fs.DurationVar(&f.reorderFlush, "fault-reorder-flush", 0, "wire fault: max hold before a displaced frame is released (0 = default 1ms)")
	fs.DurationVar(&f.stall, "fault-stall", 0, "device fault: rx stall window length (0 = off)")
	fs.DurationVar(&f.stallPeriod, "fault-stall-period", 100*time.Millisecond, "device fault: rx stall window period")
	fs.BoolVar(&fc.ResetOnStall, "fault-reset", false, "device fault: discard the rx ring when a stall window opens")
	fs.Float64Var(&fc.IntrLossProb, "fault-intr-loss", 0, "device fault: receive-interrupt loss probability")
	fs.DurationVar(&f.pause, "fault-screend-pause", 0, "process fault: screend pause window length (0 = off)")
	fs.DurationVar(&f.pausePeriod, "fault-screend-pause-period", 100*time.Millisecond, "process fault: screend pause period")
	fs.Uint64Var(&fc.Seed, "fault-seed", 0, "fault RNG seed perturbation (0 derives from -seed)")
	fs.StringVar(&f.coalesce, "coalesce", "immediate", "rx interrupt coalescing policy: immediate, count, timer, adaptive")
	fs.IntVar(&c.NIC.Coalesce.CountThresh, "coalesce-count", 0, "coalescing packet-count threshold (0 = policy default)")
	fs.DurationVar(&f.coalesceTimer, "coalesce-timer", 0, "coalescing max holdoff after first unsignaled frame (0 = policy default)")
	return f
}

// Config returns the router configuration and offered load (pkts/sec)
// the parsed flags describe, or an error if they describe no router
// NewRouter can build.
func (f *Flags) Config() (kernel.Config, float64, error) {
	cfg := f.cfg
	var err error
	if cfg.Mode, err = kernel.ParseMode(f.mode); err != nil {
		return cfg, 0, err
	}
	var ok bool
	if cfg.NIC.Coalesce.Policy, ok = nic.ParseCoalescePolicy(f.coalesce); !ok {
		return cfg, 0, fmt.Errorf("unknown coalescing policy %q", f.coalesce)
	}
	if cfg.Fault.ReorderMode, ok = fault.ParseReorderMode(f.reorderMode); !ok {
		return cfg, 0, fmt.Errorf("unknown reorder mode %q", f.reorderMode)
	}
	cfg.NIC.Coalesce.TimerThresh = sim.Duration(f.coalesceTimer)
	cfg.Fault.ReorderFlush = sim.Duration(f.reorderFlush)
	// A window period means nothing without a window; leave it zero.
	cfg.Fault.StallDuration = sim.Duration(f.stall)
	if f.stall > 0 {
		cfg.Fault.StallPeriod = sim.Duration(f.stallPeriod)
	}
	cfg.Fault.ScreendPauseDuration = sim.Duration(f.pause)
	if f.pause > 0 {
		cfg.Fault.ScreendPausePeriod = sim.Duration(f.pausePeriod)
	}
	return cfg, f.rate, cfg.Validate()
}
