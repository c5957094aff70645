package kernel

import (
	"testing"

	"livelock/internal/nic"
	"livelock/internal/sim"
	"livelock/internal/workload"
)

// The two tests below pin fixes for terminal wedges the schedule
// explorer (internal/explore) found in the polled path; the committed
// counterexamples live in internal/explore/testdata. Both states are
// silent — no event ever re-examines them — and are recovered by the
// polledPath watchdog that runs on the hardclock tick.

// steadyGap is a fixed inter-arrival gap that draws no randomness.
type steadyGap sim.Duration

func (g steadyGap) Next(*sim.RNG) sim.Duration { return sim.Duration(g) }

// TestWatchdogRecoversLostRxInterrupts reproduces the lost-interrupt
// wedge (explore scenario "intrloss"): if every receive-interrupt
// assertion for a backlogged ring is lost — the last of them the
// RxIntrDone re-assert that nothing ever retries — the ring's frames
// sat buffered forever, because in non-clocked polled mode no other
// event looks at the device. The watchdog must re-drive the interrupt
// within a clock tick once assertions get through.
func TestWatchdogRecoversLostRxInterrupts(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRouter(eng, Config{
		Mode:          ModePolled,
		Quota:         4,
		InputNICs:     1,
		NIC:           nic.Config{RxRing: 8, TxRing: 8},
		OutQueueLimit: 8,
		PoolBuffers:   64,
		Seed:          1,
	})

	// Lose the first 6 assertion attempts: enough to swallow every
	// arrival-driven assert (4 packets), so without the watchdog's
	// retries the ring is stranded with interrupts unmasked and no
	// interrupt pending.
	lost := 0
	r.Ins[0].SetRxIntrLoss(func() bool {
		if lost < 6 {
			lost++
			return true
		}
		return false
	})

	const packets = 4
	g := r.AttachGenerator(0, steadyGap(200*sim.Microsecond), packets)
	g.Start()
	eng.Run(sim.Time(0).Add(20 * sim.Millisecond))

	if got := r.Delivered(); got != packets {
		t.Fatalf("delivered %d of %d frames: lost final interrupt stranded the ring", got, packets)
	}
	if alive := r.Account().Alive; alive != 0 {
		t.Fatalf("%d frame(s) still buffered after drain", alive)
	}
	if lost < 5 {
		t.Fatalf("only %d assertions consulted: the scenario never exercised watchdog retries", lost)
	}
	if err := r.Audit(g.Sent.Value()); err != nil {
		t.Fatal(err)
	}
}

// TestWatchdogReclaimsWedgedTxRing reproduces the transmit-reclaim
// wedge (explore scenario "feedback", which hits it on its default
// schedule): screend-driven output with a small transmit ring exhausts
// every descriptor while the transmit interrupt is already latched
// pending, so the completions are never reclaimed, frames strand on
// the ifqueue, and — with receive quiet — nothing ever schedules the
// poller again. The watchdog must notice the settled
// all-descriptors-completed state and run one reclaim round.
func TestWatchdogReclaimsWedgedTxRing(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRouter(eng, Config{
		Mode:            ModePolled,
		Screend:         true,
		Feedback:        true,
		FeedbackTimeout: sim.Millisecond,
		Quota:           3,
		InputNICs:       3,
		NIC:             nic.Config{RxRing: 8, TxRing: 2},
		OutQueueLimit:   8,
		ScreendQLimit:   8,
		ScreendQHigh:    5,
		ScreendQLow:     2,
		PoolBuffers:     64,
		Seed:            1,
	})

	const perSource = 3
	gens := make([]*workload.Generator, 0, len(r.Ins))
	for i := range r.Ins {
		g := r.AttachGenerator(i, steadyGap(170*sim.Microsecond), perSource)
		g.Start()
		gens = append(gens, g)
	}
	eng.Run(sim.Time(0).Add(25 * sim.Millisecond))

	var sent uint64
	for _, g := range gens {
		sent += g.Sent.Value()
	}
	if sent != uint64(perSource*len(r.Ins)) {
		t.Fatalf("generators sent %d frames, want %d", sent, perSource*len(r.Ins))
	}
	if got := r.Delivered(); got != sent {
		t.Fatalf("delivered %d of %d frames: completed descriptors were never reclaimed", got, sent)
	}
	if alive := r.Account().Alive; alive != 0 {
		t.Fatalf("%d frame(s) still buffered after drain", alive)
	}
	_, outq, _ := r.QueueStats()
	if !outq.Empty() {
		t.Fatalf("%d frame(s) stranded on the output ifqueue", outq.Len())
	}
	if err := r.Audit(sent); err != nil {
		t.Fatal(err)
	}
}
