package fault

import (
	"testing"

	"livelock/internal/metrics"
	"livelock/internal/netstack"
	"livelock/internal/nic"
	"livelock/internal/sim"
)

func TestEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero config reports enabled")
	}
	cases := []Config{
		{DropProb: 0.1},
		{TruncateProb: 0.1},
		{CorruptProb: 0.1},
		{DupProb: 0.1},
		{DelayProb: 0.1},
		{StallPeriod: sim.Millisecond, StallDuration: 10},
		{IntrLossProb: 0.1},
		{ScreendPausePeriod: sim.Millisecond, ScreendPauseDuration: 10},
	}
	for i, c := range cases {
		if !c.Enabled() {
			t.Errorf("case %d: %+v reports disabled", i, c)
		}
	}
	// A window needs both a period and a duration.
	if (Config{StallPeriod: sim.Millisecond}).Enabled() {
		t.Fatal("stall period without duration reports enabled")
	}
	if (Config{ScreendPauseDuration: sim.Millisecond}).Enabled() {
		t.Fatal("pause duration without period reports enabled")
	}
}

func TestWithDefaultsClampsWindows(t *testing.T) {
	eng := sim.NewEngine()
	pool := netstack.NewPool(8, 2048)
	pl := NewPlane(eng, pool, Config{
		DelayProb:            0.1,
		StallPeriod:          sim.Millisecond,
		StallDuration:        2 * sim.Millisecond,
		ScreendPausePeriod:   sim.Millisecond,
		ScreendPauseDuration: sim.Millisecond,
	}, 1)
	c := pl.cfg
	if c.MaxDelay != sim.Millisecond {
		t.Fatalf("MaxDelay = %v, want default 1ms", c.MaxDelay)
	}
	if c.StallDuration >= c.StallPeriod {
		t.Fatalf("stall duration %v not clamped below period %v", c.StallDuration, c.StallPeriod)
	}
	if c.ScreendPauseDuration >= c.ScreendPausePeriod {
		t.Fatalf("pause duration %v not clamped below period %v", c.ScreendPauseDuration, c.ScreendPausePeriod)
	}
}

// tapRun transmits n frames through a tapped wire and returns the
// plane's wire-fault counters plus the per-frame delivery count.
func tapRun(t *testing.T, faultSeed, routerSeed uint64, n int) (pl *Plane, delivered uint64) {
	t.Helper()
	eng := sim.NewEngine()
	pool := netstack.NewPool(64, 2048)
	var sink nic.CountingReceiver
	w := nic.NewWire(eng, &sink, nic.EthernetBitRate, 0)
	pl = NewPlane(eng, pool, Config{
		DropProb: 0.2, TruncateProb: 0.2, CorruptProb: 0.2,
		DupProb: 0.2, DelayProb: 0.2, Seed: faultSeed,
	}, routerSeed)
	pl.AttachWire(w)
	for i := 0; i < n; i++ {
		p := pool.Get(200)
		if p == nil {
			t.Fatal("pool exhausted")
		}
		w.Transmit(p)
		eng.RunFor(sim.Millisecond) // serialize each before the next
	}
	eng.RunFor(sim.Second)
	return pl, sink.Count
}

// TestTapDeterminism checks the wire injector draws from its own seeded
// stream: identical seeds replay the identical fault sequence, and a
// different fault seed produces a different one.
func TestTapDeterminism(t *testing.T) {
	type sig [5]uint64
	signature := func(pl *Plane) sig {
		return sig{
			pl.WireDrops.Value(), pl.Truncated.Value(), pl.Corrupted.Value(),
			pl.Duplicated.Value(), pl.Delayed.Value(),
		}
	}
	a, da := tapRun(t, 5, 42, 400)
	b, db := tapRun(t, 5, 42, 400)
	if signature(a) != signature(b) || da != db {
		t.Fatalf("same seed diverged: %v/%d vs %v/%d", signature(a), da, signature(b), db)
	}
	if sum := da; sum == 400 {
		t.Fatal("no faults injected at 20% probabilities")
	}
	c, _ := tapRun(t, 6, 42, 400)
	if signature(a) == signature(c) {
		t.Fatalf("fault seeds 5 and 6 produced the identical sequence %v", signature(a))
	}
}

// TestRegisterMetricsSchema pins the registered column names to
// metricNames, in order, for a plane and for a router without one (a
// nil plane) — the contract that keeps hostile and clean timelines
// column-compatible.
func TestRegisterMetricsSchema(t *testing.T) {
	eng := sim.NewEngine()
	for _, pl := range []*Plane{NewPlane(eng, netstack.NewPool(8, 2048), Config{DropProb: 0.1}, 1), nil} {
		reg := metrics.NewRegistry()
		pl.RegisterMetrics(reg)
		got := reg.Names()
		if len(got) != len(metricNames) {
			t.Fatalf("plane %p: registered %d columns, want %d", pl, len(got), len(metricNames))
		}
		for i, name := range metricNames {
			if got[i] != name {
				t.Fatalf("plane %p: column %d = %q, want %q", pl, i, got[i], name)
			}
		}
	}
}

// TestPeriodicWindowClosesBeforeReopening: a window whose duration
// equals its period closes and reopens at one instant. The close was
// scheduled first, so it runs first and the window ends each period
// open, as the plane's stall and pause windows always have.
func TestPeriodicWindowClosesBeforeReopening(t *testing.T) {
	eng := sim.NewEngine()
	var got []bool
	w := &window{eng: eng, set: func(on bool) { got = append(got, on) },
		dur: sim.Millisecond, period: sim.Millisecond}
	eng.AfterCall(w.period, windowOpen, w, nil)
	eng.Run(sim.Time(3 * sim.Millisecond))
	want := []bool{true, false, true, false, true}
	if len(got) != len(want) {
		t.Fatalf("transitions %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transitions %v, want %v", got, want)
		}
	}
}

// TestDeclinedProbeSchedulesNothing: a probe whose choice point
// declines leaves the window shut and schedules no close; one that
// injects opens it and closes it dur later. Each probe consults its
// choice point exactly once.
func TestDeclinedProbeSchedulesNothing(t *testing.T) {
	for _, inject := range []bool{false, true} {
		eng := sim.NewEngine()
		var kinds []string
		adv := &Adversary{Decide: func(kind string, n int) int {
			kinds = append(kinds, kind)
			if inject {
				return 1
			}
			return 0
		}}
		var got []bool
		adv.probe(eng, sim.Time(sim.Millisecond), "probe", sim.Millisecond,
			func(on bool) { got = append(got, on) })
		eng.Run(sim.Time(sim.Millisecond))
		if len(kinds) != 1 || kinds[0] != "probe" {
			t.Fatalf("inject=%v: choice consultations %v, want one of kind probe", inject, kinds)
		}
		if !inject {
			if len(got) != 0 || eng.Pending() != 0 {
				t.Fatalf("declined probe: transitions %v, %d events pending", got, eng.Pending())
			}
			continue
		}
		if len(got) != 1 || !got[0] || eng.Pending() != 1 {
			t.Fatalf("injected probe: transitions %v, %d events pending", got, eng.Pending())
		}
		eng.Run(sim.Time(2 * sim.Millisecond))
		if len(got) != 2 || got[1] || eng.Pending() != 0 {
			t.Fatalf("injected probe: transitions %v, %d events pending after its close", got, eng.Pending())
		}
	}
}

// TestStallWindowToggling runs the device-layer injector and checks the
// stall windows open and close on schedule, discarding the ring when
// ResetOnStall is set.
func TestStallWindowToggling(t *testing.T) {
	eng := sim.NewEngine()
	pool := netstack.NewPool(16, 2048)
	n := nic.New(eng, "in0", netstack.MAC{}, nic.Config{RxRing: 8, TxRing: 8}, nil)
	pl := NewPlane(eng, pool, Config{
		StallPeriod:   10 * sim.Millisecond,
		StallDuration: 2 * sim.Millisecond,
		ResetOnStall:  true,
	}, 1)
	pl.AttachNIC(n)
	pl.Start(nil, nil)

	// Park two frames in the ring so the reset has something to discard.
	for i := 0; i < 2; i++ {
		p := pool.Get(60)
		n.DeliverFrame(p)
	}
	eng.Run(sim.Time(11 * sim.Millisecond)) // inside the first window
	if !n.RxStalled() {
		t.Fatal("NIC not stalled inside the window")
	}
	if pl.ResetDrops.Value() != 2 {
		t.Fatalf("ResetDrops = %d, want 2", pl.ResetDrops.Value())
	}
	if p := pool.Get(60); p != nil {
		n.DeliverFrame(p)
	}
	if got := n.StallDrops.Value(); got != 1 {
		t.Fatalf("StallDrops = %d, want 1 (frame arriving mid-stall)", got)
	}
	eng.Run(sim.Time(13 * sim.Millisecond)) // past the window
	if n.RxStalled() {
		t.Fatal("NIC still stalled after the window closed")
	}
}

// idReceiver records the ID of every frame a wire delivers.
type idReceiver struct{ got []uint64 }

func (r *idReceiver) DeliverFrame(p *netstack.Packet) { r.got = append(r.got, p.ID) }

// TestReorderHoldSlotsStayPut ages the oldest held frame out through
// pass while later frames stay held, releases the next one through pass
// too, and lets the last two frames' flushes fire at one instant, the
// newest first (a tie-breaker picks it, as explore may). The engine's
// queue points at each held frame's flush timer, so releasing one frame
// must not move another: disarming a moved timer panics, and a flush
// must deliver its own frame. Each frame is delivered exactly once and
// the hold drains.
func TestReorderHoldSlotsStayPut(t *testing.T) {
	eng := sim.NewEngine()
	var rx idReceiver
	w := nic.NewWire(eng, &rx, nic.EthernetBitRate, 0)
	h := &reorderHold{eng: eng, w: w, span: 2, flush: sim.Millisecond,
		slots: make([]reorderSlot, maxReorderHeld)}
	frame := func(id uint64) *netstack.Packet { return &netstack.Packet{ID: id} }
	mainLine := func(id uint64) {
		w.Deliver(frame(id))
		h.pass()
	}

	h.hold(frame(1))
	mainLine(10)
	eng.RunFor(100 * sim.Microsecond)
	h.hold(frame(2))
	mainLine(11) // frame 1 has seen two frames pass: released
	h.hold(frame(3))
	h.hold(frame(4))
	if h.n != 3 {
		t.Fatalf("%d frames held after the first release, want 3", h.n)
	}
	mainLine(12) // frame 2 released; its flush timer is disarmed
	eng.SetTieBreaker(func(_ sim.Time, ties []sim.Tie) int { return len(ties) - 1 })
	eng.RunFor(sim.Second)

	want := []uint64{10, 11, 1, 12, 2, 4, 3}
	if len(rx.got) != len(want) {
		t.Fatalf("delivered %v, want %v", rx.got, want)
	}
	for i := range want {
		if rx.got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", rx.got, want)
		}
	}
	if h.n != 0 || eng.Pending() != 0 {
		t.Fatalf("after the flushes: %d frames held, %d events pending", h.n, eng.Pending())
	}
}

// TestReorderHoldSwapDrainsReversed: under ReorderSwap an expired batch
// leaves newest first, and a later hold reuses the freed slots.
func TestReorderHoldSwapDrainsReversed(t *testing.T) {
	eng := sim.NewEngine()
	var rx idReceiver
	w := nic.NewWire(eng, &rx, nic.EthernetBitRate, 0)
	h := &reorderHold{eng: eng, w: w, span: 1, flush: sim.Millisecond, swap: true,
		slots: make([]reorderSlot, 3)}
	for round := uint64(0); round < 2; round++ {
		for id := uint64(1); id <= 3; id++ {
			h.hold(&netstack.Packet{ID: 10*round + id})
		}
		w.Deliver(&netstack.Packet{ID: 100 + round})
		h.pass()
	}
	want := []uint64{100, 3, 2, 1, 101, 13, 12, 11}
	if len(rx.got) != len(want) {
		t.Fatalf("delivered %v, want %v", rx.got, want)
	}
	for i := range want {
		if rx.got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", rx.got, want)
		}
	}
	if h.n != 0 || eng.Pending() != 0 {
		t.Fatalf("hold keeps %d frames, %d events pending", h.n, eng.Pending())
	}
}
