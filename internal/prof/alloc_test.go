package prof

import (
	"testing"

	"livelock/internal/prov"
	"livelock/internal/sim"
)

// The profiler rides the packet fast path: every tracked frame incurs
// an Attach, several Stage/Invest calls, and one finalize; a ring drop
// finalizes through the zero handle. Once the record pool covers the
// working set, the whole lifecycle — and the detector tick — must not
// allocate, or enabling the profiler would perturb what it measures.
func TestAllocsLifecycle(t *testing.T) {
	p := New()
	var now sim.Time
	var delivered uint64
	allocs := testing.AllocsPerRun(1000, func() {
		now = now.Add(sim.Millisecond)
		h := p.Attach(1, now)
		p.Invest(h, prov.CenterRxIntr, 60)
		p.Stage(h, prov.StageIPIntrQEnqueue, now.Add(100))
		p.Invest(h, prov.CenterIPInput, 90)
		p.Deliver(h, now.Add(300))

		h = p.Attach(2, now)
		p.Invest(h, prov.CenterRxIntr, 60)
		p.Drop(h, prov.ReasonIPIntrQFull, now.Add(120))
		p.Drop(prov.Handle{}, prov.ReasonRxRingFull, now)

		delivered++
		p.Tick(now, delivered)
	})
	if allocs != 0 {
		t.Fatalf("profiler lifecycle allocates %v objects, want 0", allocs)
	}
}
