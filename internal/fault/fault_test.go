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
	c := pl.Config()
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
		if err := pl.RegisterMetrics(reg); err != nil {
			t.Fatal(err)
		}
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
