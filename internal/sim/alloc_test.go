package sim

import "testing"

// Allocation regression tests: the engine hot path — closure-free
// scheduling through the event pool, firing, and Timer arm/disarm —
// must not allocate in steady state. A failure here means a change
// reintroduced per-event garbage, which the benchmark gate would catch
// later and more expensively.

func TestAllocsAfterCallStep(t *testing.T) {
	eng := NewEngine()
	tick := func(a, _ any) {} // named-shape callback; no captured state
	// Warm the pool: the first schedule allocates the one pooled Event.
	eng.AfterCall(1, tick, nil, nil)
	eng.Step()

	allocs := testing.AllocsPerRun(1000, func() {
		eng.AfterCall(1, tick, nil, nil)
		eng.Step()
	})
	if allocs != 0 {
		t.Fatalf("AfterCall+Step allocates %v objects per event, want 0", allocs)
	}
}

func TestAllocsCancelResched(t *testing.T) {
	eng := NewEngine()
	tick := func(a, _ any) {}
	var rto Timer
	rto.Init(tick, nil, nil)
	eng.AfterCall(1, tick, nil, nil)
	eng.Step()

	allocs := testing.AllocsPerRun(1000, func() {
		eng.ArmAfter(&rto, 10)
		eng.Disarm(&rto)
		eng.AfterCall(1, tick, nil, nil)
		eng.Step()
	})
	if allocs != 0 {
		t.Fatalf("disarm/reschedule cycle allocates %v objects, want 0", allocs)
	}
}

func TestAllocsSelfRescheduling(t *testing.T) {
	// The shape every recurring timer in the simulator uses: the
	// callback schedules its own successor. A single pooled Event must
	// cycle indefinitely.
	eng := NewEngine()
	var tick Callback
	tick = func(a, _ any) {
		a.(*Engine).AfterCall(1, tick, a, nil)
	}
	eng.AfterCall(1, tick, eng, nil)
	eng.Step()

	allocs := testing.AllocsPerRun(1000, func() { eng.Step() })
	if allocs != 0 {
		t.Fatalf("self-rescheduling timer allocates %v objects per firing, want 0", allocs)
	}
}
