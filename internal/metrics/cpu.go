package metrics

import (
	"livelock/internal/cpu"
	"livelock/internal/prov"
	"livelock/internal/sim"
)

// RegisterCPU registers the processor's accounting instruments under
// the column prefix ("cpu." for the boot CPU, whose columns keep their
// historical names; "cpu1." for core 1 of an SMP configuration):
// per-class utilization (the columns of the paper's figures), per-IPL
// utilization, and the dispatch/preemption counters.
//
// <prefix>rxipl.util is the headline livelock signal: the fraction of
// each interval spent at the receive-path interrupt levels (device +
// soft). Under livelock it pins at ~1 minus the clock overhead while
// the "delivered" delta goes to zero — the CPU is busier than ever
// doing work that is all eventually thrown away.
func RegisterCPU(reg *Registry, c *cpu.CPU, prefix string) {
	reg.Utilization(prefix+"idle.util", c.IdleTime)
	classes := []cpu.Class{
		cpu.ClassIntr, cpu.ClassSoft, cpu.ClassKernel,
		cpu.ClassUser, cpu.ClassClock,
	}
	for _, cl := range classes {
		cl := cl
		reg.Utilization(prefix+cl.String()+".util", func() sim.Duration {
			return c.ClassTime(cl)
		})
	}
	levels := []cpu.IPL{cpu.IPLThread, cpu.IPLSoft, cpu.IPLDevice, cpu.IPLClock}
	for _, l := range levels {
		l := l
		reg.Utilization(prefix+"ipl."+l.String()+".util", func() sim.Duration {
			return c.IPLTime(l)
		})
	}
	reg.Utilization(prefix+"rxipl.util", func() sim.Duration {
		return c.IPLTime(cpu.IPLDevice) + c.IPLTime(cpu.IPLSoft)
	})
	reg.Utilization(prefix+"raisedipl.util", c.RaisedIPLTime)
	reg.CounterFunc(prefix+"dispatches", c.Dispatches)
	reg.CounterFunc(prefix+"preemptions", c.Preemptions)
	// Per-cost-center utilization: the cycle-attribution view. Together
	// the center columns plus cpu.idle.util partition every simulated
	// cycle (CPU.AuditCycles enforces this), so "where did the CPU go"
	// is answerable from the timeline alone.
	for ct := prov.Center(0); ct < prov.NumCenters; ct++ {
		ct := ct
		reg.Utilization(prefix+"center."+ct.String()+".util", func() sim.Duration {
			return c.CenterTime(ct)
		})
	}
}
