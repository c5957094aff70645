package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineFiresInOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	times := []Time{50, 10, 30, 20, 40, 10, 10}
	for _, at := range times {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	e.Run(100)
	want := append([]Time(nil), times...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d fired at %v, want %v (order %v)", i, got[i], want[i], got)
		}
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run(5)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events out of FIFO order: %v", got)
		}
	}
}

func TestEngineClockAdvancesToUntil(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {})
	e.Run(100)
	if e.Now() != 100 {
		t.Fatalf("Now() = %v after Run(100), want 100", e.Now())
	}
}

func TestEngineEventAtUntilFires(t *testing.T) {
	e := NewEngine()
	fired := false
	e.At(100, func() { fired = true })
	e.Run(100)
	if !fired {
		t.Fatal("event scheduled exactly at the Run boundary did not fire")
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := 0
	ev := e.At(10, func() { fired++ })
	keep := e.At(20, func() { fired++ })
	e.Cancel(ev)
	e.Cancel(ev) // double-cancel is a no-op
	e.Run(100)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (cancelled event must not run)", fired)
	}
	if keep.Pending() {
		t.Fatal("fired event still reports Pending")
	}
	e.Cancel(keep) // cancelling a fired event is a no-op
}

func TestEngineCancelFromWithinEvent(t *testing.T) {
	e := NewEngine()
	fired := 0
	var victim Handle
	e.At(5, func() { e.Cancel(victim) })
	victim = e.At(10, func() { fired++ })
	e.Run(100)
	if fired != 0 {
		t.Fatal("event cancelled by an earlier event still fired")
	}
}

func TestEngineScheduleFromWithinEvent(t *testing.T) {
	e := NewEngine()
	var got []Time
	e.At(10, func() {
		e.After(5, func() { got = append(got, e.Now()) })
		e.At(e.Now(), func() { got = append(got, e.Now()) }) // same instant: runs next
	})
	e.Run(100)
	if len(got) != 2 || got[0] != 10 || got[1] != 15 {
		t.Fatalf("got fire times %v, want [10 15]", got)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {})
	e.Run(10)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(5, func() {})
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(1, func() { fired++; e.Stop() })
	e.At(2, func() { fired++ })
	e.Run(100)
	if fired != 1 {
		t.Fatalf("fired = %d after Stop, want 1", fired)
	}
	// A subsequent Run resumes.
	e.Run(100)
	if fired != 2 {
		t.Fatalf("fired = %d after resumed Run, want 2", fired)
	}
}

func TestEngineStepEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty engine returned true")
	}
}

func TestEngineHeapProperty(t *testing.T) {
	// Property: for any sequence of schedule/cancel operations, events
	// fire in non-decreasing time order.
	check := func(times []uint16, cancelMask []bool) bool {
		e := NewEngine()
		var fired []Time
		var evs []Handle
		for _, ti := range times {
			at := Time(ti)
			evs = append(evs, e.At(at, func() { fired = append(fired, at) }))
		}
		for i, ev := range evs {
			if i < len(cancelMask) && cancelMask[i] {
				e.Cancel(ev)
			}
		}
		e.Run(Time(math.MaxUint16) + 1)
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		// Count survivors.
		want := 0
		for i := range evs {
			if !(i < len(cancelMask) && cancelMask[i]) {
				want++
			}
		}
		return len(fired) == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEnginePendingCount(t *testing.T) {
	e := NewEngine()
	a := e.At(1, func() {})
	e.At(2, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Cancel(a)
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after cancel, want 1", e.Pending())
	}
}

// TestEngineRunBoundary covers the single-traversal Run loop at its
// edge: events landing exactly at `until` fire (including ones
// scheduled at `until` from within a boundary event), later events
// stay queued, and the return value counts only this Run's fires.
func TestEngineRunBoundary(t *testing.T) {
	e := NewEngine()
	var fired []string
	e.At(100, func() {
		fired = append(fired, "boundary")
		// Same-instant cascade scheduled from a boundary event must
		// still fire inside this Run.
		e.At(100, func() { fired = append(fired, "cascade") })
	})
	e.At(101, func() { fired = append(fired, "late") })
	if n := e.Run(100); n != 2 {
		t.Fatalf("Run(100) fired %d events, want 2", n)
	}
	if len(fired) != 2 || fired[0] != "boundary" || fired[1] != "cascade" {
		t.Fatalf("fired %v, want [boundary cascade]", fired)
	}
	if e.Now() != 100 {
		t.Fatalf("Now() = %v, want 100", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want the late event still queued", e.Pending())
	}
	if n := e.Run(200); n != 1 {
		t.Fatalf("second Run fired %d events, want 1", n)
	}
}

// TestEngineStopMidBatch stops the engine from inside a batch of
// same-instant events: the current event completes, its same-instant
// peers stay queued, and a resumed Run fires them in the original FIFO
// order.
func TestEngineStopMidBatch(t *testing.T) {
	e := NewEngine()
	var fired []int
	for i := 0; i < 5; i++ {
		i := i
		e.At(10, func() {
			fired = append(fired, i)
			if i == 1 {
				e.Stop()
			}
		})
	}
	if n := e.Run(100); n != 2 {
		t.Fatalf("Run fired %d events before Stop, want 2", n)
	}
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d after Stop, want 3", e.Pending())
	}
	// Run advances the clock to until even when stopped early; the
	// remaining same-instant events still fire on the resumed Run.
	// (Long-standing semantics, pinned here so the overhaul keeps them.)
	if e.Now() != 100 {
		t.Fatalf("Now() = %v after Stop, want 100", e.Now())
	}
	e.Run(100)
	want := []int{0, 1, 2, 3, 4}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v (FIFO order must survive Stop/resume)", fired, want)
		}
	}
}

// TestEngineLazyCancelRecycling exercises the interaction between the
// free-list pool and generation-checked handles: a handle kept across
// its event's recycling must go inert rather than cancel the Event's
// next occupant. (Cancellation was once lazy; the name is kept, and the
// check covers the eager Cancel, which recycles just as firing does.)
func TestEngineLazyCancelRecycling(t *testing.T) {
	e := NewEngine()
	fired := 0
	h1 := e.At(10, func() { fired++ })
	e.Run(10) // h1 fires; its Event returns to the free list
	if h1.Pending() {
		t.Fatal("fired event still reports Pending")
	}
	h2 := e.At(20, func() { fired++ }) // reuses the pooled Event
	e.Cancel(h1)                       // stale handle: must not touch h2
	if !h2.Pending() {
		t.Fatal("stale Cancel killed the pooled Event's new occupant")
	}
	e.Run(30)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if h2.Pending() {
		t.Fatal("fired event still reports Pending")
	}
}

// TestEngineCancelHeavyCompaction drives a cancel-heavy load (named
// for the compaction the lazy-cancellation heap once needed here):
// thousands of schedule/cancel pairs with far-future deadlines must not
// change what actually fires.
func TestEngineCancelHeavyCompaction(t *testing.T) {
	e := NewEngine()
	fired := 0
	for i := 0; i < 5000; i++ {
		h := e.At(Time(1_000_000+i), func() { t.Error("cancelled event fired") })
		e.At(Time(i+1), func() { fired++ })
		e.Cancel(h)
	}
	if e.Pending() != 5000 {
		t.Fatalf("Pending = %d, want 5000 live events", e.Pending())
	}
	e.Run(10_000)
	if fired != 5000 {
		t.Fatalf("fired = %d, want 5000", fired)
	}
}

// TestEngineCancelFreesAtOnce: Cancel takes the event's node out of
// the queue there and then, so after every far-future schedule/cancel
// pair the queue holds exactly the pending events and no cancelled
// node waits for a later sweep.
func TestEngineCancelFreesAtOnce(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5000; i++ {
		h := e.At(Time(1_000_000+i), func() { t.Error("cancelled event fired") })
		e.At(Time(i+1), func() {})
		e.Cancel(h)
		if len(e.queue) != e.Pending() {
			t.Fatalf("pair %d: queue holds %d nodes, %d pending", i, len(e.queue), e.Pending())
		}
	}
	e.Run(10_000)
	if len(e.queue) != 0 || e.Pending() != 0 {
		t.Fatalf("drained engine: queue %d nodes, %d pending", len(e.queue), e.Pending())
	}
}

// TestEngineAtCall covers the closure-free scheduling variant,
// including handle cancellation.
// A Timer's Event is its owner's: firing or disarming it must never
// put it on the free list, where AtCall would hand it out while the
// owner still holds it.
func TestTimerNeverRecycled(t *testing.T) {
	eng := NewEngine()
	var tm Timer
	fired := 0
	tm.Init(func(_, _ any) { fired++ }, nil, nil)
	var handles []Handle
	noop := func(_, _ any) {}
	for i := 0; i < 50; i++ {
		eng.ArmAfter(&tm, Duration(i%3))
		handles = append(handles, eng.AfterCall(1, noop, nil, nil))
		if i%2 == 0 {
			eng.Disarm(&tm)
			eng.Cancel(handles[len(handles)-1])
		}
		eng.RunFor(5)
		if tm.ev.armed {
			t.Fatalf("round %d: timer still armed after it was due", i)
		}
		for ev := eng.free; ev != nil; ev = ev.next {
			if ev == &tm.ev {
				t.Fatalf("round %d: the timer's Event is on the free list", i)
			}
		}
		for j := 0; j < 4; j++ {
			handles = append(handles, eng.AfterCall(Duration(j), noop, nil, nil))
		}
	}
	for _, h := range handles {
		if h.ev == &tm.ev {
			t.Fatal("AtCall handed out the timer's Event")
		}
	}
	if fired != 25 {
		t.Fatalf("timer fired %d times, want 25", fired)
	}
}

func TestEngineAtCall(t *testing.T) {
	e := NewEngine()
	type rec struct{ got []int }
	r := &rec{}
	add := func(a, b any) { a.(*rec).got = append(a.(*rec).got, b.(int)) }
	e.AtCall(10, add, r, 1)
	h := e.AtCall(20, add, r, 2)
	e.AfterCall(30, add, r, 3)
	if !h.Pending() || h.When() != 20 {
		t.Fatalf("handle: pending=%v when=%v, want pending at 20", h.Pending(), h.When())
	}
	e.Cancel(h)
	if h.Pending() {
		t.Fatal("cancelled handle still pending")
	}
	e.Run(100)
	if len(r.got) != 2 || r.got[0] != 1 || r.got[1] != 3 {
		t.Fatalf("got %v, want [1 3]", r.got)
	}
}

func TestPerSecond(t *testing.T) {
	if got := PerSecond(1000); got != Millisecond {
		t.Fatalf("PerSecond(1000) = %v, want 1ms", got)
	}
	if got := PerSecond(0); got != 0 {
		t.Fatalf("PerSecond(0) = %v, want 0", got)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{2 * Microsecond, "2.000µs"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}
