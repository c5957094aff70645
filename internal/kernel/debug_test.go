package kernel

import (
	"testing"

	"livelock/internal/cpu"
	"livelock/internal/sim"
	"livelock/internal/workload"
)

// TestDebugFeedbackBreakdown prints a CPU-time breakdown for the
// feedback configuration; diagnostic only (run with -v).
func TestDebugFeedbackBreakdown(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	eng := sim.NewEngine()
	cfg := Config{Mode: ModePolled, Quota: 10, Screend: true, Feedback: true}
	r := NewRouter(eng, cfg)
	gen := r.AttachGenerator(0, workload.ConstantRate{Rate: 6000, JitterFrac: 0.05}, 0)
	gen.Start()
	eng.Run(sim.Time(2 * sim.Second))

	t.Logf("delivered=%d (%.0f pps)", r.Delivered(), float64(r.Delivered())/2)
	u := r.CPU.Utilization()
	for cl := cpu.Class(0); cl < cpu.NumClasses; cl++ {
		t.Logf("  %-8s %.3f", cl, u[cl])
	}
	ps := r.Poller()
	t.Logf("poller: wakeups=%d rounds=%d rx=%d tx=%d fbInhibits=%d fbTimeouts=%d",
		ps.Wakeups, ps.Rounds, ps.RxSteps, ps.TxSteps, ps.FeedbackInhibits, ps.FeedbackTimeouts)
	_, outq, sq := r.QueueStats()
	t.Logf("screendq: enq=%d drops=%d", sq.Enqueued.Value(), sq.Drops.Value())
	t.Logf("outq: enq=%d drops=%d", outq.Enqueued.Value(), outq.Drops.Value())
	t.Logf("screend: accepted=%d", r.screend.Accepted.Value())
	t.Logf("ring drops=%d", r.Ins[0].InDiscards.Value())
	t.Logf("intr dispatches: %v", r.CPU.ClassTime(cpu.ClassIntr))
}
