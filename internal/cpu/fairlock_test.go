package cpu

import (
	"testing"

	"livelock/internal/prov"
	"livelock/internal/sim"
)

// TestFairLockUncontended pins the zero-cost property: a lock with no
// contention adds no cycles — the critical section runs immediately and
// the only record is the acquisition count.
func TestFairLockUncontended(t *testing.T) {
	eng, c := newCPU()
	l := NewFairLock("l")
	task := c.NewTask("a", IPLThread, 0, ClassKernel)
	done := sim.Time(-1)
	task.PostLocked(l, 10*us, prov.CenterIPInput, func() { done = eng.Now() })
	eng.Run(sim.Time(sim.Second))

	if done != sim.Time(10*us) {
		t.Fatalf("critical section ended at %v, want 10µs", done)
	}
	if l.Acquisitions() != 1 || l.Contended() != 0 {
		t.Fatalf("acquisitions=%d contended=%d, want 1/0", l.Acquisitions(), l.Contended())
	}
	if l.SpinTime() != 0 || l.MaxSpin() != 0 {
		t.Fatalf("spin=%v max=%v, want 0", l.SpinTime(), l.MaxSpin())
	}
	if l.HeldUntil() != sim.Time(10*us) {
		t.Fatalf("HeldUntil=%v, want 10µs", l.HeldUntil())
	}
	if got := c.CenterTime(prov.CenterLock); got != 0 {
		t.Fatalf("CenterLock time=%v, want 0", got)
	}
}

// TestFairLockFIFOHandoff contends three cores on one lock at the same
// instant and checks strict arrival-order handoff: each core's critical
// section starts exactly when its predecessor's ends, the spin cycles
// are charged to CenterLock on the spinning core, and every core's
// cycle ledger still balances.
func TestFairLockFIFOHandoff(t *testing.T) {
	eng := sim.NewEngine()
	sys := NewSystem(eng, 3)
	l := NewFairLock("l")
	const hold = 10 * us

	var order []int
	ends := make([]sim.Time, 3)
	for i := 0; i < 3; i++ {
		i := i
		task := sys.CPU(i).NewTask("t", IPLThread, 0, ClassKernel)
		task.PostLocked(l, hold, prov.CenterIPInput, func() {
			order = append(order, i)
			ends[i] = eng.Now()
		})
	}
	eng.Run(sim.Time(sim.Second))

	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("handoff order = %v, want [0 1 2]", order)
	}
	for i, want := range []sim.Time{sim.Time(10 * us), sim.Time(20 * us), sim.Time(30 * us)} {
		if ends[i] != want {
			t.Fatalf("core %d critical section ended at %v, want %v", i, ends[i], want)
		}
	}
	if l.Acquisitions() != 3 || l.Contended() != 2 {
		t.Fatalf("acquisitions=%d contended=%d, want 3/2", l.Acquisitions(), l.Contended())
	}
	if l.SpinTime() != 30*us || l.MaxSpin() != 20*us {
		t.Fatalf("spin=%v max=%v, want 30µs/20µs", l.SpinTime(), l.MaxSpin())
	}
	// Spin burns cycles on the waiting core: core i spins i·hold, then
	// holds for hold. Busy time and center attribution must agree.
	for i := 0; i < 3; i++ {
		c := sys.CPU(i)
		wantSpin := sim.Duration(i) * hold
		if got := c.CenterTime(prov.CenterLock); got != wantSpin {
			t.Fatalf("core %d CenterLock time=%v, want %v", i, got, wantSpin)
		}
		if got := c.CenterTime(prov.CenterIPInput); got != hold {
			t.Fatalf("core %d hold time=%v, want %v", i, got, hold)
		}
		if got := c.BusyTime(); got != wantSpin+hold {
			t.Fatalf("core %d busy=%v, want %v", i, got, wantSpin+hold)
		}
	}
	if err := sys.AuditCycles(eng.Now()); err != nil {
		t.Fatalf("cycle ledger unbalanced: %v", err)
	}
}

// TestFairLockAlternation pins fairness under sustained contention: two
// cores re-acquiring in a tight loop must alternate strictly — a core
// releasing the lock cannot barge back in ahead of the peer already
// waiting (the starvation an unfair spinlock permits).
func TestFairLockAlternation(t *testing.T) {
	eng := sim.NewEngine()
	sys := NewSystem(eng, 2)
	l := NewFairLock("l")
	const hold, rounds = 10 * us, 4

	var order []int
	for i := 0; i < 2; i++ {
		i := i
		task := sys.CPU(i).NewTask("t", IPLThread, 0, ClassKernel)
		var again func()
		n := 0
		again = func() {
			order = append(order, i)
			n++
			if n < rounds {
				task.PostLocked(l, hold, prov.CenterIPInput, again)
			}
		}
		task.PostLocked(l, hold, prov.CenterIPInput, again)
	}
	eng.Run(sim.Time(sim.Second))

	if len(order) != 2*rounds {
		t.Fatalf("ran %d critical sections, want %d", len(order), 2*rounds)
	}
	for k, owner := range order {
		if owner != k%2 {
			t.Fatalf("acquisition order %v: position %d went to core %d (unfair handoff)", order, k, owner)
		}
	}
}

// TestInterruptFlagSaveRestore checks the spl-style save/restore
// round-trip, including nesting: the flag only truly re-enables at the
// outermost restore.
func TestInterruptFlagSaveRestore(t *testing.T) {
	_, c := newCPU()
	if !c.InterruptsEnabled() {
		t.Fatal("interrupts must start enabled")
	}
	outer := c.SaveAndDisableInterrupts()
	if !outer {
		t.Fatal("outer save returned false, want previous state (enabled)")
	}
	if c.InterruptsEnabled() {
		t.Fatal("interrupts still enabled after outer save")
	}
	inner := c.SaveAndDisableInterrupts()
	if inner {
		t.Fatal("inner save returned true, want previous state (disabled)")
	}
	c.RestoreInterrupts(inner)
	if c.InterruptsEnabled() {
		t.Fatal("inner restore re-enabled interrupts; only the outermost may")
	}
	c.RestoreInterrupts(outer)
	if !c.InterruptsEnabled() {
		t.Fatal("outer restore did not re-enable interrupts")
	}
}

// TestLockedItemBlocksPreemption verifies that a critical section runs
// with interrupts disabled: a device-level interrupt arriving mid-hold
// waits for the unlock instead of preempting, and the interrupt flag is
// restored afterwards so normal preemption resumes.
func TestLockedItemBlocksPreemption(t *testing.T) {
	eng, c := newCPU()
	l := NewFairLock("l")
	low := c.NewTask("low", IPLThread, 0, ClassKernel)
	high := c.NewTask("high", IPLDevice, 0, ClassIntr)

	var lowDone, highDone sim.Time
	low.PostLocked(l, 100*us, prov.CenterIPInput, func() { lowDone = eng.Now() })
	eng.At(sim.Time(40*us), func() {
		high.Post(10*us, func() { highDone = eng.Now() })
	})
	eng.Run(sim.Time(sim.Second))

	if lowDone != sim.Time(100*us) {
		t.Fatalf("critical section ended at %v, want 100µs (uninterrupted)", lowDone)
	}
	if highDone != sim.Time(110*us) {
		t.Fatalf("interrupt ran at %v, want 110µs (after unlock)", highDone)
	}
	if c.Preemptions() != 0 {
		t.Fatalf("Preemptions = %d, want 0 (critical section is preemption-free)", c.Preemptions())
	}
	if !c.InterruptsEnabled() {
		t.Fatal("interrupt flag not restored after unlock")
	}
	if err := c.AuditCycles(eng.Now()); err != nil {
		t.Fatalf("cycle ledger unbalanced: %v", err)
	}
}

// TestPostLockedTailNilLock pins the uniprocessor half of the split
// rule: with no lock, PostLockedTail is one plain item of the full cost
// — one dispatch, fn run once at its end, nothing charged to
// CenterLock.
func TestPostLockedTailNilLock(t *testing.T) {
	eng, c := newCPU()
	task := c.NewTask("a", IPLThread, 0, ClassKernel)
	var runs int
	done := sim.Time(-1)
	task.PostLockedTail(nil, 30*us, 3*us, prov.CenterIPInput, func() {
		runs++
		done = eng.Now()
	})
	if got := task.Pending(); got != 1 {
		t.Fatalf("pending items = %d, want 1", got)
	}
	eng.Run(sim.Time(sim.Second))

	if runs != 1 || done != sim.Time(30*us) {
		t.Fatalf("fn ran %d time(s), last at %v; want once at 30µs", runs, done)
	}
	if c.Dispatches() != 1 {
		t.Fatalf("dispatches = %d, want 1", c.Dispatches())
	}
	if got := c.CenterTime(prov.CenterIPInput); got != 30*us {
		t.Fatalf("charged %v to ip-input, want 30µs", got)
	}
	if got := c.CenterTime(prov.CenterLock); got != 0 {
		t.Fatalf("CenterLock time = %v, want 0", got)
	}
}

// TestPostLockedTailSplit runs the SMP half under contention: each
// core's cost splits into an unlocked body and a locked tail, the
// configured cost lands on the item's center, and the only extra time
// — the second core's spin — lands on CenterLock.
func TestPostLockedTailSplit(t *testing.T) {
	eng := sim.NewEngine()
	sys := NewSystem(eng, 2)
	l := NewFairLock("l")
	const cost, tail = 20 * us, 5 * us

	ends := make([]sim.Time, 2)
	for i := 0; i < 2; i++ {
		i := i
		task := sys.CPU(i).NewTask("t", IPLThread, 0, ClassKernel)
		task.PostLockedTail(l, cost, tail, prov.CenterIPInput, func() { ends[i] = eng.Now() })
		if got := task.Pending(); got != 2 {
			t.Fatalf("core %d pending items = %d, want body + tail", i, got)
		}
	}
	eng.Run(sim.Time(sim.Second))

	// Both bodies run in parallel for 15µs; core 0 then holds the lock
	// until 20µs and core 1 spins for it, holding until 25µs.
	if ends[0] != sim.Time(20*us) || ends[1] != sim.Time(25*us) {
		t.Fatalf("tails ended at %v, %v; want 20µs, 25µs", ends[0], ends[1])
	}
	for i := 0; i < 2; i++ {
		c := sys.CPU(i)
		if got := c.CenterTime(prov.CenterIPInput); got != cost {
			t.Fatalf("core %d charged %v to ip-input, want %v", i, got, cost)
		}
	}
	if got := sys.CPU(1).CenterTime(prov.CenterLock); got != tail {
		t.Fatalf("core 1 spin = %v, want %v on CenterLock", got, tail)
	}
	if l.Acquisitions() != 2 || l.SpinTime() != tail {
		t.Fatalf("acquisitions=%d spin=%v, want 2/%v", l.Acquisitions(), l.SpinTime(), tail)
	}
	if err := sys.AuditCycles(eng.Now()); err != nil {
		t.Fatal(err)
	}
}

// TestPostLockedTailClamp covers a cost no larger than the tail: the
// whole cost becomes one locked item, so the total charged still equals
// the configured cost instead of the tail.
func TestPostLockedTailClamp(t *testing.T) {
	for _, cost := range []sim.Duration{0, 2 * us, 3 * us} {
		eng, c := newCPU()
		l := NewFairLock("l")
		task := c.NewTask("a", IPLThread, 0, ClassKernel)
		var runs int
		task.PostLockedTail(l, cost, 3*us, prov.CenterIPInput, func() { runs++ })
		if got := task.Pending(); got != 1 {
			t.Fatalf("cost %v: pending items = %d, want 1 locked item", cost, got)
		}
		eng.Run(sim.Time(sim.Second))
		if runs != 1 || l.Acquisitions() != 1 {
			t.Fatalf("cost %v: fn runs=%d acquisitions=%d, want 1/1", cost, runs, l.Acquisitions())
		}
		if got := c.BusyTime(); got != cost {
			t.Fatalf("cost %v: charged %v", cost, got)
		}
	}
}
