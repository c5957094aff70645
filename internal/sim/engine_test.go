package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
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

// countFire is a Timer callback counting into *a.
func countFire(a, _ any) { *a.(*int)++ }

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := 0
	var ev, keep Timer
	ev.Init(countFire, &fired, nil)
	keep.Init(countFire, &fired, nil)
	e.ArmAfter(&ev, 10)
	e.ArmAfter(&keep, 20)
	e.Disarm(&ev)
	e.Disarm(&ev) // disarming a disarmed timer is a no-op
	if ev.Armed() || !keep.Armed() {
		t.Fatalf("Armed: disarmed %v, pending %v", ev.Armed(), keep.Armed())
	}
	e.Run(100)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (disarmed timer must not run)", fired)
	}
	if keep.Armed() {
		t.Fatal("fired timer still reports Armed")
	}
	e.Disarm(&keep) // disarming a fired timer is a no-op
}

func TestEngineCancelFromWithinEvent(t *testing.T) {
	e := NewEngine()
	fired := 0
	var victim Timer
	victim.Init(countFire, &fired, nil)
	e.At(5, func() { e.Disarm(&victim) })
	e.ArmAfter(&victim, 10)
	e.Run(100)
	if fired != 0 {
		t.Fatal("timer disarmed by an earlier event still fired")
	}
}

// A Timer is disarmed when its callback runs, so the callback sees
// Armed false and may re-arm it; the re-arm takes the next seq, as a
// fresh AtCall would.
func TestTimerRearmFromCallback(t *testing.T) {
	e := NewEngine()
	var tm Timer
	var got []string
	tm.Init(func(a, _ any) {
		if tm.Armed() {
			t.Fatal("timer reports Armed inside its own callback")
		}
		got = append(got, "timer")
		if len(got) < 4 {
			e.ArmAfter(&tm, 0)
		}
	}, nil, nil)
	e.ArmAfter(&tm, 10)
	e.At(10, func() { got = append(got, "event") })
	e.Run(20)
	want := []string{"timer", "event", "timer", "timer"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// An armed Timer copied or moved elsewhere leaves the queue pointing
// at the original: disarming the copy must panic, not remove the wrong
// node or corrupt the queue.
func TestTimerMovedPanics(t *testing.T) {
	e := NewEngine()
	var tm Timer
	tm.Init(func(_, _ any) {}, nil, nil)
	e.ArmAfter(&tm, 10)
	moved := tm
	defer func() {
		if recover() == nil {
			t.Fatal("disarming a moved armed timer did not panic")
		}
	}()
	e.Disarm(&moved)
}

// A moved Timer amid other pending events: the panic leaves the queue
// as it was, so the events around it still fire in order.
func TestTimerMovedPanicsMidQueue(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{30, 10, 20} {
		e.AtCall(at, recordAt, &got, at)
	}
	var tm Timer
	tm.Init(recordAt, &got, Time(15))
	e.ArmAfter(&tm, 15)
	moved := tm
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("disarming a moved armed timer did not panic")
			}
		}()
		e.Disarm(&moved)
	}()
	checkQueue(t, e)
	e.Run(100)
	want := []Time{10, 15, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// recordAt appends b, the event's due time, to *a.
func recordAt(a, b any) { *a.(*[]Time) = append(*a.(*[]Time), b.(Time)) }

// checkQueue fails unless the queue is strictly sorted by (when, seq),
// latest first, and each node's key is its Event's.
func checkQueue(t *testing.T, e *Engine) {
	t.Helper()
	for i, n := range e.queue {
		if n.when != n.ev.when || n.seq != n.ev.seq {
			t.Fatalf("node %d key (%v, %d), its event's (%v, %d)", i, n.when, n.seq, n.ev.when, n.ev.seq)
		}
		if i == 0 {
			continue
		}
		if p := e.queue[i-1]; p.when < n.when || p.when == n.when && p.seq <= n.seq {
			t.Fatalf("node %d (%v, %d) not ordered before node %d (%v, %d)", i-1, p.when, p.seq, i, n.when, n.seq)
		}
	}
}

// An insert walks past every node due at or before its instant, so a
// run of more than ten same-instant events puts the next one at that
// instant ahead of all of them: it fires last among them.
func TestEngineLongTieFiresLast(t *testing.T) {
	e := NewEngine()
	var got []int
	record := func(a, b any) { got = append(got, b.(int)) }
	e.AtCall(9, record, nil, -1)
	for i := 0; i < 12; i++ {
		e.AtCall(5, record, nil, i)
	}
	e.AtCall(3, record, nil, -2)
	e.AtCall(5, record, nil, 12)
	checkQueue(t, e)
	e.Run(100)
	want := []int{-2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, -1}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// The insert pass at its two ends on a queue 130 deep: an event due
// after all the others goes to the head (index 0) past every node, and
// one due before all of them stays at the tail without moving any.
func TestEngineInsertDeepQueueEnds(t *testing.T) {
	e := NewEngine()
	var got []Time
	for i := 0; i < 130; i++ {
		at := Time(100 + (i*53)%130) // every instant in [100, 230), shuffled
		e.AtCall(at, recordAt, &got, at)
	}
	checkQueue(t, e)
	e.AtCall(1000, recordAt, &got, Time(1000))
	if n := e.queue[0]; n.when != 1000 {
		t.Fatalf("latest event at index 0 is due %v, want 1000", n.when)
	}
	e.AtCall(1, recordAt, &got, Time(1))
	if n := e.queue[len(e.queue)-1]; n.when != 1 {
		t.Fatalf("earliest event at the tail is due %v, want 1", n.when)
	}
	checkQueue(t, e)
	e.Run(2000)
	if len(got) != 132 || got[0] != 1 || got[131] != 1000 {
		t.Fatalf("fired %d events, first %v, last %v", len(got), got[0], got[len(got)-1])
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("event %d fired at %v after %v", i, got[i], got[i-1])
		}
	}
}

// Disarm closes the gap at each position: the head (index 0, the latest
// event), a middle node and the tail (the next to fire).
func TestEngineDisarmHeadMiddleTail(t *testing.T) {
	for _, drop := range []int{0, 3, 6} { // queue index, latest first
		e := NewEngine()
		var got []Time
		var tms [7]Timer
		for i := range tms {
			at := Time(70 - 10*i) // index i of the queue once all are armed
			tms[i].Init(recordAt, &got, at)
			e.ArmAfter(&tms[i], Duration(at))
		}
		e.Disarm(&tms[drop])
		checkQueue(t, e)
		if tms[drop].Armed() || e.Pending() != 6 {
			t.Fatalf("drop %d: still armed %v, %d pending", drop, tms[drop].Armed(), e.Pending())
		}
		e.Run(100)
		var want []Time
		for i := len(tms) - 1; i >= 0; i-- {
			if i != drop {
				want = append(want, Time(70-10*i))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("drop %d: fired %v, want %v", drop, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("drop %d: fired %v, want %v", drop, got, want)
			}
		}
	}
}

// An Event, and so a Timer, fills one 64-byte size class on a 64-bit
// platform: no free-list link rides in every Timer.
func TestEventSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Event{}); got != 64 {
		t.Fatalf("Event is %d bytes, want 64", got)
	}
	if got := unsafe.Sizeof(Timer{}); got != 64 {
		t.Fatalf("Timer is %d bytes, want 64", got)
	}
}

func TestTimerArmTwicePanics(t *testing.T) {
	e := NewEngine()
	var tm Timer
	tm.Init(func(_, _ any) {}, nil, nil)
	e.ArmAfter(&tm, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("arming an armed timer did not panic")
		}
	}()
	e.ArmAfter(&tm, 20)
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
		evs := make([]Timer, len(times))
		for i, ti := range times {
			evs[i].Init(func(a, _ any) { fired = append(fired, a.(Time)) }, Time(ti), nil)
			e.ArmAfter(&evs[i], Duration(ti))
		}
		for i := range evs {
			if i < len(cancelMask) && cancelMask[i] {
				e.Disarm(&evs[i])
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
	var a Timer
	a.Init(func(_, _ any) {}, nil, nil)
	e.ArmAfter(&a, 1)
	e.At(2, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Disarm(&a)
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

// TestEngineCancelHeavyCompaction drives a cancel-heavy load (named
// for the compaction the lazy-cancellation heap once needed here):
// thousands of arm/disarm pairs with far-future deadlines must not
// change what actually fires.
func TestEngineCancelHeavyCompaction(t *testing.T) {
	e := NewEngine()
	fired := 0
	var rto Timer
	rto.Init(func(_, _ any) { t.Error("disarmed timer fired") }, nil, nil)
	for i := 0; i < 5000; i++ {
		e.ArmAfter(&rto, Duration(1_000_000+i))
		e.At(Time(i+1), func() { fired++ })
		e.Disarm(&rto)
	}
	if e.Pending() != 5000 {
		t.Fatalf("Pending = %d, want 5000 live events", e.Pending())
	}
	e.Run(10_000)
	if fired != 5000 {
		t.Fatalf("fired = %d, want 5000", fired)
	}
}

// TestEngineCancelFreesAtOnce: Disarm takes the timer's node out of
// the queue there and then, so after every far-future arm/disarm pair
// the queue holds exactly the pending events and no disarmed node waits
// for a later sweep.
func TestEngineCancelFreesAtOnce(t *testing.T) {
	e := NewEngine()
	var rto Timer
	rto.Init(func(_, _ any) { t.Error("disarmed timer fired") }, nil, nil)
	for i := 0; i < 5000; i++ {
		e.ArmAfter(&rto, Duration(1_000_000+i))
		e.At(Time(i+1), func() {})
		e.Disarm(&rto)
		if len(e.queue) != e.Pending() {
			t.Fatalf("pair %d: queue holds %d nodes, %d pending", i, len(e.queue), e.Pending())
		}
	}
	e.Run(10_000)
	if len(e.queue) != 0 || e.Pending() != 0 {
		t.Fatalf("drained engine: queue %d nodes, %d pending", len(e.queue), e.Pending())
	}
}

// A Timer's Event is its owner's: firing or disarming it must never
// put it on the free list, where AtCall would hand it out while the
// owner still holds it.
func TestTimerNeverRecycled(t *testing.T) {
	eng := NewEngine()
	var tm Timer
	fired := 0
	tm.Init(countFire, &fired, nil)
	noop := func(_, _ any) {}
	for i := 0; i < 50; i++ {
		eng.ArmAfter(&tm, Duration(i%3))
		eng.AfterCall(1, noop, nil, nil)
		if i%2 == 0 {
			eng.Disarm(&tm)
		}
		eng.RunFor(5)
		if tm.Armed() {
			t.Fatalf("round %d: timer still armed after it was due", i)
		}
		for ev := eng.free; ev != nil; ev = ev.a.(*Event) {
			if ev == &tm.ev {
				t.Fatalf("round %d: the timer's Event is on the free list", i)
			}
		}
		for j := 0; j < 4; j++ {
			eng.AfterCall(Duration(j), noop, nil, nil)
		}
		for _, n := range eng.queue {
			if n.ev == &tm.ev {
				t.Fatalf("round %d: AtCall handed out the timer's Event", i)
			}
		}
	}
	if fired != 25 {
		t.Fatalf("timer fired %d times, want 25", fired)
	}
}

// TestEngineAtCall covers the closure-free scheduling variant: each
// event fires once, with its operands, in (when, seq) order.
func TestEngineAtCall(t *testing.T) {
	e := NewEngine()
	type rec struct{ got []int }
	r := &rec{}
	add := func(a, b any) { a.(*rec).got = append(a.(*rec).got, b.(int)) }
	e.AtCall(20, add, r, 2)
	e.AtCall(10, add, r, 1)
	e.AfterCall(20, add, r, 3)
	e.Run(100)
	if len(r.got) != 3 || r.got[0] != 1 || r.got[1] != 2 || r.got[2] != 3 {
		t.Fatalf("got %v, want [1 2 3]", r.got)
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
