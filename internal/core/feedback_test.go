package core

import (
	"testing"

	"livelock/internal/netstack"
	"livelock/internal/queue"
	"livelock/internal/sim"
)

func TestFeedbackInhibitsAndReleases(t *testing.T) {
	eng := sim.NewEngine()
	g := NewGate()
	fb := NewFeedback(eng, g, "screendq", sim.Millisecond, nil, 0, 0)

	fb.QueueHigh()
	if g.Open() || !fb.Inhibited() {
		t.Fatal("gate open after QueueHigh")
	}
	if fb.Inhibits.Value() != 1 {
		t.Fatalf("Inhibits = %d", fb.Inhibits.Value())
	}
	fb.QueueLow()
	if !g.Open() {
		t.Fatal("gate closed after QueueLow")
	}
	// The timer must have been cancelled: running past the timeout does
	// not change anything or count a timeout.
	eng.Run(sim.Time(10 * sim.Millisecond))
	if fb.Timeouts.Value() != 0 {
		t.Fatalf("Timeouts = %d after clean release", fb.Timeouts.Value())
	}
}

func TestFeedbackTimeoutReenables(t *testing.T) {
	eng := sim.NewEngine()
	g := NewGate()
	fb := NewFeedback(eng, g, "screendq", sim.Millisecond, nil, 0, 0)
	fb.QueueHigh()
	eng.Run(sim.Time(999 * sim.Microsecond))
	if g.Open() {
		t.Fatal("gate opened before timeout")
	}
	eng.Run(sim.Time(sim.Millisecond))
	if !g.Open() {
		t.Fatal("gate still closed after timeout (hung-consumer recovery)")
	}
	if fb.Timeouts.Value() != 1 {
		t.Fatalf("Timeouts = %d, want 1", fb.Timeouts.Value())
	}
}

func TestFeedbackRepeatedHighIdempotentButRearms(t *testing.T) {
	eng := sim.NewEngine()
	g := NewGate()
	fb := NewFeedback(eng, g, "q", sim.Millisecond, nil, 0, 0)
	fb.QueueHigh()
	fb.QueueHigh() // still inhibited: no double-count
	if fb.Inhibits.Value() != 1 {
		t.Fatalf("Inhibits = %d, want 1", fb.Inhibits.Value())
	}
	eng.Run(sim.Time(sim.Millisecond)) // timeout releases
	fb.QueueHigh()                     // queue still above high: re-inhibit
	if g.Open() {
		t.Fatal("gate open after re-inhibit")
	}
	if fb.Inhibits.Value() != 2 {
		t.Fatalf("Inhibits = %d, want 2", fb.Inhibits.Value())
	}
}

func TestFeedbackZeroTimeoutNeverRearms(t *testing.T) {
	eng := sim.NewEngine()
	g := NewGate()
	fb := NewFeedback(eng, g, "q", 0, nil, 0, 0)
	fb.QueueHigh()
	eng.Run(sim.Time(sim.Second))
	if g.Open() {
		t.Fatal("gate opened without a timeout configured")
	}
	fb.QueueLow()
	if !g.Open() {
		t.Fatal("QueueLow did not release")
	}
}

// TestFeedbackPressureReasserts: a controller bound to a queue inhibits
// as the queue fills to its high watermark. When the timeout releases
// the gate with the queue still above it, the watermark callback cannot
// re-fire, and Pressure re-inhibits. Once the queue drains to its low
// watermark, Pressure does nothing.
func TestFeedbackPressureReasserts(t *testing.T) {
	eng := sim.NewEngine()
	g := NewGate()
	q := queue.New("q", 8, nil)
	fb := NewFeedback(eng, g, "q", sim.Millisecond, q, 6, 2)
	for i := 0; i < 6; i++ {
		q.Enqueue(&netstack.Packet{})
	}
	if g.Open() {
		t.Fatal("gate open with the bound queue at its high watermark")
	}
	eng.Run(sim.Time(sim.Millisecond))
	if !g.Open() || fb.Timeouts.Value() != 1 {
		t.Fatalf("timeout did not release the gate (open %v, %d timeouts)", g.Open(), fb.Timeouts.Value())
	}
	fb.Pressure()
	if g.Open() || fb.Inhibits.Value() != 2 {
		t.Fatalf("Pressure above high: open %v, %d inhibits, want closed and 2", g.Open(), fb.Inhibits.Value())
	}
	for i := 0; i < 4; i++ {
		q.Dequeue()
	}
	if !g.Open() {
		t.Fatal("gate closed with the queue drained to its low watermark")
	}
	fb.Pressure()
	if !g.Open() || fb.Inhibits.Value() != 2 {
		t.Fatalf("Pressure at low: open %v, %d inhibits, want open and 2", g.Open(), fb.Inhibits.Value())
	}
}

// TestFeedbackNilSafe: a queue without feedback holds a nil controller,
// and its producer and consumer call Pressure and Progress on it.
func TestFeedbackNilSafe(t *testing.T) {
	var fb *Feedback
	fb.Pressure()
	fb.Progress()
}

func TestCycleLimiterBudget(t *testing.T) {
	g := NewGate()
	l := NewCycleLimiter(g, "cycles", 10*sim.Millisecond, 0.25)
	l.NoteUsage(2 * sim.Millisecond)
	if l.Inhibited() {
		t.Fatal("inhibited below budget")
	}
	l.NoteUsage(600 * sim.Microsecond) // total 2.6ms > 2.5ms budget
	if !l.Inhibited() {
		t.Fatal("not inhibited above budget")
	}
	if l.Inhibits.Value() != 1 {
		t.Fatalf("Inhibits = %d", l.Inhibits.Value())
	}
	l.Tick()
	if l.Inhibited() || l.Used() != 0 {
		t.Fatal("Tick did not reset")
	}
}

func TestCycleLimiterThresholdOneNeverInhibits(t *testing.T) {
	g := NewGate()
	l := NewCycleLimiter(g, "cycles", 10*sim.Millisecond, 1.0)
	l.NoteUsage(100 * sim.Millisecond)
	if l.Inhibited() {
		t.Fatal("threshold 1.0 inhibited input")
	}
}

func TestCycleLimiterIdleReset(t *testing.T) {
	g := NewGate()
	l := NewCycleLimiter(g, "cycles", 10*sim.Millisecond, 0.1)
	l.NoteUsage(5 * sim.Millisecond)
	if !l.Inhibited() {
		t.Fatal("not inhibited")
	}
	l.OnIdle()
	if l.Inhibited() || l.Used() != 0 {
		t.Fatal("OnIdle did not reset")
	}
	if l.IdleResets.Value() != 1 {
		t.Fatalf("IdleResets = %d", l.IdleResets.Value())
	}
	// Idle with nothing outstanding does not count.
	l.OnIdle()
	if l.IdleResets.Value() != 1 {
		t.Fatalf("IdleResets = %d after no-op idle", l.IdleResets.Value())
	}
}

func TestCycleLimiterValidation(t *testing.T) {
	g := NewGate()
	for _, f := range []func(){
		func() { NewCycleLimiter(g, "x", 0, 0.5) },
		func() { NewCycleLimiter(g, "x", sim.Millisecond, -0.1) },
		func() { NewCycleLimiter(g, "x", sim.Millisecond, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid limiter config did not panic")
				}
			}()
			f()
		}()
	}
}
