package kernel

import (
	"bytes"
	"testing"

	"livelock/internal/fault"
	"livelock/internal/sim"
	"livelock/internal/workload"
)

// faultScenarios are the built-in fault mixes every kernel mode must
// stay conservation-clean under. "corrupt" exercises the wire layer
// (loss, truncation, bit flips, duplication, reordering); "stall"
// exercises the device and process layers (rx stalls with ring resets,
// lost interrupts, screend pauses).
var faultScenarios = []struct {
	name string
	cfg  fault.Config
}{
	{"clean", fault.Config{}},
	{"corrupt", fault.Config{
		DropProb:     0.02,
		TruncateProb: 0.02,
		CorruptProb:  0.05,
		DupProb:      0.02,
		DelayProb:    0.02,
		ReorderProb:  0.02,
	}},
	{"reorder", fault.Config{
		ReorderProb:  0.1,
		ReorderSpan:  4,
		ReorderMode:  fault.ReorderSwap,
		ReorderFlush: 2 * sim.Millisecond,
	}},
	{"stall", fault.Config{
		StallPeriod:          50 * sim.Millisecond,
		StallDuration:        5 * sim.Millisecond,
		ResetOnStall:         true,
		IntrLossProb:         0.01,
		ScreendPausePeriod:   100 * sim.Millisecond,
		ScreendPauseDuration: 20 * sim.Millisecond,
	}},
}

// TestPacketConservation asserts the auditor's core promise: in every
// kernel mode, under every built-in fault scenario, each generated
// frame lands in exactly one terminal bucket. An unbalanced ledger is a
// lost or invented buffer, and Audit must say so.
func TestPacketConservation(t *testing.T) {
	modes := []struct {
		name string
		cfg  Config
	}{
		{"unmodified", Config{Mode: ModeUnmodified}},
		{"unmodified-screend", Config{Mode: ModeUnmodified, Screend: true}},
		{"polled-compat", Config{Mode: ModePolledCompat, Quota: 5}},
		{"polled-feedback", Config{Mode: ModePolled, Quota: 10, Screend: true, Feedback: true}},
	}
	for _, m := range modes {
		for _, sc := range faultScenarios {
			t.Run(m.name+"/"+sc.name, func(t *testing.T) {
				cfg := m.cfg
				cfg.Seed = 7
				cfg.Fault = sc.cfg
				eng := sim.NewEngine()
				r := NewRouter(eng, cfg)
				gen := r.AttachGenerator(0, workload.ConstantRate{Rate: 6000, JitterFrac: 0.05}, 0)
				gen.Start()
				eng.Run(sim.Time(sim.Second))
				gen.Stop()
				eng.RunFor(500 * sim.Millisecond) // drain
				if err := r.Audit(gen.Sent.Value()); err != nil {
					t.Fatalf("ledger unbalanced: %v\n%+v", err, r.Account())
				}
				if gen.Sent.Value() == 0 {
					t.Fatal("generator sent nothing")
				}
				if pl := r.Fault(); pl != nil && sc.name == "corrupt" {
					if pl.WireDrops.Value()+pl.Truncated.Value()+pl.Corrupted.Value() == 0 {
						t.Fatal("corrupt scenario injected no wire faults")
					}
				}
			})
		}
	}
}

// TestTCPConservationAllVariants extends the packet and cycle audits to
// TCP flows: for every variant, under every built-in fault scenario,
// each data segment the sender transmitted lands in exactly one
// terminal bucket (TCPConsumed, a counted drop, or a live buffer), the
// ACK stream balances as router-originated traffic, and the per-core
// cycle ledger closes. This is what makes spurious retransmissions
// auditable rather than just counted: a retransmitted segment is a
// source-side frame like any other and must be conserved.
func TestTCPConservationAllVariants(t *testing.T) {
	for _, v := range []TCPVariant{VariantTahoe, VariantReno, VariantNewReno, VariantSACK} {
		for _, sc := range faultScenarios {
			t.Run(v.String()+"/"+sc.name, func(t *testing.T) {
				eng := sim.NewEngine()
				cfg := Config{Mode: ModePolled, Quota: 5, Seed: 7, Fault: sc.cfg}
				r := NewRouter(eng, cfg)
				rx := r.OpenTCPReceiver(8080)
				if v == VariantSACK {
					rx.EnableSACK()
				}
				snd := r.AttachTCPSender(0, TCPSenderConfig{
					Port: 8080, MSS: 512, TotalBytes: 100_000, Variant: v, MaxCwnd: 16,
				})
				snd.Start()
				eng.Run(sim.Time(10 * sim.Second))
				if err := r.Audit(snd.SegmentsSent.Value()); err != nil {
					t.Fatalf("ledger unbalanced: %v\n%+v", err, r.Account())
				}
				if err := r.AuditCycles(); err != nil {
					t.Fatalf("cycle ledger unbalanced: %v", err)
				}
				if rx.GoodputBytes != rx.RcvNxt() {
					t.Fatalf("application stream not in-order/dup-free: goodput %d, rcvNxt %d",
						rx.GoodputBytes, rx.RcvNxt())
				}
				// Loss-free scenarios must finish and carry a balanced
				// spurious-retransmit ledger; lossy ones need only the
				// conservation above.
				if sc.name == "clean" || sc.name == "reorder" {
					if !snd.Done {
						t.Fatalf("transfer incomplete: acked %d", snd.AckedBytes())
					}
					if rx.Duplicates.Value() != snd.RtxSegments.Value() {
						t.Fatalf("spurious ledger: %d dups vs %d rtx segments",
							rx.Duplicates.Value(), snd.RtxSegments.Value())
					}
				}
			})
		}
	}
}

// TestAuditDetectsLeak proves the auditor is not vacuous: holding one
// pool buffer outside the accounted flow must unbalance the ledger.
func TestAuditDetectsLeak(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRouter(eng, Config{Mode: ModePolled, Quota: 5, Seed: 3})
	gen := r.AttachGenerator(0, workload.ConstantRate{Rate: 2000, JitterFrac: 0.05}, 0)
	gen.Start()
	eng.Run(sim.Time(500 * sim.Millisecond))
	gen.Stop()
	eng.RunFor(200 * sim.Millisecond)
	if err := r.Audit(gen.Sent.Value()); err != nil {
		t.Fatalf("clean run unbalanced: %v", err)
	}
	leaked := r.Pool.Get(64)
	if leaked == nil {
		t.Fatal("pool exhausted")
	}
	if err := r.Audit(gen.Sent.Value()); err == nil {
		t.Fatal("Audit balanced with a leaked buffer")
	}
	leaked.Release()
	if err := r.Audit(gen.Sent.Value()); err != nil {
		t.Fatalf("ledger still unbalanced after release: %v", err)
	}
}

// TestFaultDeterminism extends the determinism contract to the fault
// plane: the same seed must produce a byte-identical timeline when
// faults are enabled, and enabling faults must come from an independent
// RNG stream (checked implicitly — the timeline includes every fault
// counter, so any divergence shows up in the CSV).
func TestFaultDeterminism(t *testing.T) {
	cfg := Config{
		Mode: ModePolled, Quota: 10, Screend: true, Feedback: true, Seed: 42,
		Fault: fault.Config{
			DropProb:      0.02,
			CorruptProb:   0.05,
			DupProb:       0.02,
			DelayProb:     0.02,
			StallPeriod:   50 * sim.Millisecond,
			StallDuration: 5 * sim.Millisecond,
			ResetOnStall:  true,
			IntrLossProb:  0.01,
		},
	}
	csv := func() []byte {
		res := mustTimeline(t, cfg, 7000, TimelineOptions{RunFor: 500 * sim.Millisecond})
		var buf bytes.Buffer
		if err := res.Series.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first, second := csv(), csv()
	if !bytes.Equal(first, second) {
		t.Fatal("same seed produced different fault timelines")
	}
}
