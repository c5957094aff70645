package kernel

import (
	"fmt"
	"testing"

	"livelock/internal/fault"
	"livelock/internal/nic"
	"livelock/internal/prof"
	"livelock/internal/prov"
	"livelock/internal/sim"
)

// Property and differential tests for the TCP variants: under zero
// faults all four variants are behaviorally identical; under reorder
// fault schedules the application-visible byte stream stays in-order
// and duplicate-free, packet and spurious-retransmit ledgers balance
// exactly, and no retransmission happens without a cause.

// tcpVariantRun runs one bulk transfer with the given variant, fault
// schedule, coalescing policy and resequencing hold, then drains the
// network and returns the parties for inspection.
func tcpVariantRun(t *testing.T, v TCPVariant, fcfg fault.Config, seed uint64,
	co nic.CoalesceConfig, reseq sim.Duration, total uint64, runFor sim.Duration,
) (*TCPSender, *TCPReceiver, *Router) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := Config{Mode: ModePolled, Quota: 5, Seed: seed, Fault: fcfg}
	cfg.NIC.Coalesce = co
	r := NewRouter(eng, cfg)
	rx := r.OpenTCPReceiver(8080)
	if v == VariantSACK {
		rx.EnableSACK()
	}
	if reseq > 0 {
		rx.SetResequencing(reseq)
	}
	snd := r.AttachTCPSender(0, TCPSenderConfig{
		Port: 8080, MSS: 512, TotalBytes: total, Variant: v, MaxCwnd: 16,
	})
	snd.Start()
	eng.Run(sim.Time(runFor))
	return snd, rx, r
}

// TestTCPVariantsIdenticalWithoutFaults: on a clean path the four
// variants differ only in loss recovery, so with no loss they must
// produce the exact same transfer — same segment count, same finish
// time, same received byte stream, and no recovery machinery fired.
func TestTCPVariantsIdenticalWithoutFaults(t *testing.T) {
	const total = 300_000
	type outcome struct {
		finished sim.Time
		segments uint64
		acks     uint64
	}
	var first *outcome
	for _, v := range []TCPVariant{VariantTahoe, VariantReno, VariantNewReno, VariantSACK} {
		snd, rx, _ := tcpVariantRun(t, v, fault.Config{}, 7, nic.CoalesceConfig{}, 0, total, 5*sim.Second)
		if !snd.Done {
			t.Fatalf("%v: clean transfer incomplete (acked %d)", v, snd.AckedBytes())
		}
		if n := snd.Retransmits.Value() + snd.Timeouts.Value() + snd.RtxSegments.Value(); n != 0 {
			t.Fatalf("%v: loss recovery fired on a clean path (%d events)", v, n)
		}
		if rx.Duplicates.Value()+rx.OutOfOrder.Value()+rx.OOODrops.Value() != 0 {
			t.Fatalf("%v: receiver saw disorder on a clean path", v)
		}
		if rx.GoodputBytes != total || rx.RcvNxt() != total {
			t.Fatalf("%v: goodput %d, rcvNxt %d, want %d", v, rx.GoodputBytes, rx.RcvNxt(), uint64(total))
		}
		got := outcome{snd.FinishedAt, snd.SegmentsSent.Value(), rx.AcksSent.Value()}
		if first == nil {
			first = &got
		} else if got != *first {
			t.Fatalf("%v: diverged from tahoe on a clean path: %+v vs %+v", v, got, *first)
		}
	}
}

// TestTCPReorderFuzzLedger fuzzes the reorder knob (both displacement
// models, several seeds and degrees, coalescing on and off, with and
// without the receiver resequencer) across all four variants and
// asserts the structural properties that must survive any reorder-only
// schedule:
//
//   - the application byte stream is in-order and duplicate-free
//     (GoodputBytes ≡ rcvNxt, and it reaches the transfer size);
//   - packet conservation: reordering delays frames but loses none, so
//     the router's audit balances and every data segment the sender
//     transmitted reached the receiver;
//   - the spurious-retransmit ledger balances exactly: with no real
//     loss anywhere, every segment retransmitted into old sequence
//     space (sender RtxSegments) surfaces as exactly one duplicate
//     data arrival at the receiver (rx.Duplicates);
//   - no retransmission without a cause: if the plane injected no
//     reorders, the recovery machinery must not have fired at all.
func TestTCPReorderFuzzLedger(t *testing.T) {
	const total = 120_000
	variants := []TCPVariant{VariantTahoe, VariantReno, VariantNewReno, VariantSACK}
	for seed := uint64(1); seed <= 6; seed++ {
		v := variants[seed%uint64(len(variants))]
		mode := fault.ReorderDisplace
		if seed%2 == 1 {
			mode = fault.ReorderSwap
		}
		fcfg := fault.Config{
			ReorderProb:  0.02 * float64(seed),
			ReorderSpan:  int(1 + seed%5),
			ReorderMode:  mode,
			ReorderFlush: sim.Duration(seed) * sim.Millisecond,
		}
		var co nic.CoalesceConfig
		if seed%3 == 0 {
			co = nic.CoalesceConfig{Policy: nic.CoalesceCount, CountThresh: 4,
				TimerThresh: 2 * sim.Millisecond}
		}
		var reseq sim.Duration
		if seed%2 == 0 {
			reseq = 2 * sim.Millisecond
		}
		name := fmt.Sprintf("seed%d-%v-%v", seed, v, mode)
		t.Run(name, func(t *testing.T) {
			snd, rx, r := tcpVariantRun(t, v, fcfg, seed, co, reseq, total, 20*sim.Second)
			if !snd.Done {
				t.Fatalf("transfer incomplete: acked %d of %d (rtx=%d to=%d)",
					snd.AckedBytes(), uint64(total), snd.Retransmits.Value(), snd.Timeouts.Value())
			}
			// In-order, duplicate-free application stream.
			if rx.GoodputBytes != rx.RcvNxt() {
				t.Fatalf("goodput %d != rcvNxt %d: stream not in-order/dup-free",
					rx.GoodputBytes, rx.RcvNxt())
			}
			if rx.GoodputBytes < total {
				t.Fatalf("application got %d of %d bytes", rx.GoodputBytes, uint64(total))
			}
			// Reordering must not have dropped anything anywhere.
			a := r.Account()
			if a.Dropped() != 0 || rx.OOODrops.Value() != 0 {
				t.Fatalf("reorder-only schedule dropped frames: %+v ooodrops=%d",
					a, rx.OOODrops.Value())
			}
			if a.Alive != 0 {
				t.Fatalf("%d frames still alive after drain (held by the reorder stage?)", a.Alive)
			}
			// Packet conservation, sender frames as the generated input.
			if err := r.Audit(snd.SegmentsSent.Value()); err != nil {
				t.Fatalf("ledger unbalanced: %v", err)
			}
			if rx.Segments.Value() != snd.SegmentsSent.Value() {
				t.Fatalf("receiver saw %d segments, sender sent %d",
					rx.Segments.Value(), snd.SegmentsSent.Value())
			}
			// Spurious-retransmit ledger: every retransmitted segment is
			// spurious here, and each one surfaces as one duplicate.
			if rx.Duplicates.Value() != snd.RtxSegments.Value() {
				t.Fatalf("spurious ledger unbalanced: %d duplicates at receiver vs %d retransmitted segments",
					rx.Duplicates.Value(), snd.RtxSegments.Value())
			}
			// No retransmission without a cause.
			reordered := r.Fault().Reordered.Value()
			if reordered == 0 && snd.Retransmits.Value()+snd.Timeouts.Value()+snd.RtxSegments.Value() != 0 {
				t.Fatal("recovery fired with no reorder injected and no loss")
			}
			if err := r.AuditCycles(); err != nil {
				t.Fatalf("cycle ledger unbalanced: %v", err)
			}
		})
	}
}

// TestTCPSpuriousRtxProvenance runs a reorder-only transfer with the
// cycle-attribution profiler attached and asserts the waste is charged
// where it belongs: every duplicate data segment (a spurious
// retransmission's arrival) is finalized under ReasonTCPDupData with
// real invested cycles in the wasted ledger, every accepted segment
// closes as useful, and no provenance record leaks.
func TestTCPSpuriousRtxProvenance(t *testing.T) {
	const total = 120_000
	eng := sim.NewEngine()
	cfg := Config{
		Mode: ModePolled, Quota: 5, Seed: 11,
		Fault:   fault.Config{ReorderProb: 0.1, ReorderSpan: 4, ReorderFlush: 10 * sim.Millisecond},
		Profile: prof.New(),
	}
	r := NewRouter(eng, cfg)
	rx := r.OpenTCPReceiver(8080)
	snd := r.AttachTCPSender(0, TCPSenderConfig{
		Port: 8080, MSS: 512, TotalBytes: total, Variant: VariantReno, MaxCwnd: 16,
	})
	snd.Start()
	eng.Run(sim.Time(20 * sim.Second))
	if !snd.Done {
		t.Fatalf("transfer incomplete: acked %d", snd.AckedBytes())
	}
	if rx.Duplicates.Value() == 0 {
		t.Fatal("schedule induced no spurious retransmissions; nothing to attribute")
	}
	p := cfg.Profile
	if p.Live() != 0 {
		t.Fatalf("%d provenance records leaked", p.Live())
	}
	dups, invested := p.DropCount(prov.ReasonTCPDupData), p.DropInvested(prov.ReasonTCPDupData)
	if dups != rx.Duplicates.Value() {
		t.Fatalf("provenance counted %d tcp-dup-data drops, receiver counted %d",
			dups, rx.Duplicates.Value())
	}
	if invested == 0 {
		t.Fatal("duplicate segments charged no invested cycles — waste not attributed")
	}
	if err := r.AuditCycles(); err != nil {
		t.Fatalf("cycle ledger unbalanced: %v", err)
	}
}

// TestTCPResequencerSuppressesRecovery is the differential heart of the
// Wu/Demar/Crawford experiment at unit scale: same seed, same reorder
// schedule, same variant — with receiver-side sorting the sender must
// see strictly fewer (here: zero) loss signals than without it.
func TestTCPResequencerSuppressesRecovery(t *testing.T) {
	const total = 120_000
	// Span 4 with a generous flush: the held frame is passed by four
	// later segments (four dupacks — enough for fast retransmit) before
	// the flush backstop can deliver it in order.
	fcfg := fault.Config{ReorderProb: 0.1, ReorderSpan: 4, ReorderFlush: 10 * sim.Millisecond}
	bare, _, _ := tcpVariantRun(t, VariantReno, fcfg, 11, nic.CoalesceConfig{}, 0, total, 20*sim.Second)
	sorted, srx, _ := tcpVariantRun(t, VariantReno, fcfg, 11, nic.CoalesceConfig{}, 4*sim.Millisecond, total, 20*sim.Second)
	if !bare.Done || !sorted.Done {
		t.Fatalf("transfers incomplete: bare=%v sorted=%v", bare.Done, sorted.Done)
	}
	if bare.Retransmits.Value() == 0 {
		t.Fatal("reorder schedule induced no spurious fast retransmits without sorting")
	}
	if got := sorted.Retransmits.Value(); got >= bare.Retransmits.Value() {
		t.Fatalf("resequencer did not reduce spurious recovery: %d vs %d",
			got, bare.Retransmits.Value())
	}
	if srx.AcksSuppressed.Value() == 0 {
		t.Fatal("resequencer suppressed no ACKs under reorder")
	}
	// Sorting must not cost meaningful goodput (small slack: held ACKs
	// can stretch the very tail of the transfer).
	if sorted.FinishedAt > bare.FinishedAt+bare.FinishedAt/10 {
		t.Fatalf("sorting slowed the transfer: %v vs %v", sorted.FinishedAt, bare.FinishedAt)
	}
}
