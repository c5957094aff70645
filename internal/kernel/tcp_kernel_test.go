package kernel

import (
	"testing"

	"livelock/internal/fault"
	"livelock/internal/prof"
	"livelock/internal/prov"
	"livelock/internal/sim"
	"livelock/internal/workload"
)

// tcpTransfer runs a bulk transfer, optionally with a competing UDP
// flood on a second input interface, and returns goodput (bytes/s over
// the run) plus the sender for inspection.
func tcpTransfer(t *testing.T, mode Mode, total uint64, floodRate float64,
	runFor sim.Duration) (*TCPSender, *TCPReceiver, *Router) {
	t.Helper()
	eng := sim.NewEngine()
	inputs := 1
	if floodRate > 0 {
		inputs = 2
	}
	r := NewRouter(eng, Config{Mode: mode, Quota: 5, InputNICs: inputs})
	rx := r.OpenTCPReceiver(8080)
	snd := r.AttachTCPSender(0, TCPSenderConfig{Port: 8080, MSS: 512, TotalBytes: total})
	if floodRate > 0 {
		gen := r.AttachGenerator(1, workload.ConstantRate{Rate: floodRate, JitterFrac: 0.05}, 0)
		gen.Start()
	}
	snd.Start()
	eng.Run(sim.Time(runFor))
	return snd, rx, r
}

// TestTCPBulkTransferCompletes: a clean transfer finishes with exact
// byte accounting and no spurious loss recovery.
func TestTCPBulkTransferCompletes(t *testing.T) {
	for _, mode := range []Mode{ModeUnmodified, ModePolled} {
		const total = 500_000
		snd, rx, _ := tcpTransfer(t, mode, total, 0, 5*sim.Second)
		if !snd.Done {
			t.Fatalf("%v: transfer incomplete: acked %d of %d (rtx=%d, to=%d)",
				mode, snd.AckedBytes(), uint64(total), snd.Retransmits.Value(), snd.Timeouts.Value())
		}
		if rx.GoodputBytes < total {
			t.Fatalf("%v: receiver got %d bytes", mode, rx.GoodputBytes)
		}
		if snd.Timeouts.Value() != 0 {
			t.Fatalf("%v: %d RTOs on a clean path", mode, snd.Timeouts.Value())
		}
		// Goodput should approach the transport's window/RTT limit; on
		// a clean 10 Mb/s path 500 KB takes well under 5 s.
		if snd.FinishedAt > sim.Time(4*sim.Second) {
			t.Fatalf("%v: transfer took %v", mode, snd.FinishedAt)
		}
	}
}

// TestTCPWindowDynamics: the congestion window starts at one segment,
// opens through slow start as ACKs arrive, and collapses back to one on
// an RTO — the Tahoe state machine observed directly.
func TestTCPWindowDynamics(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRouter(eng, Config{Mode: ModePolled, Quota: 5})
	r.OpenTCPReceiver(8080)
	snd := r.AttachTCPSender(0, TCPSenderConfig{Port: 8080, MSS: 512})
	if snd.Cwnd() != 1 {
		t.Fatalf("initial cwnd = %v, want 1", snd.Cwnd())
	}
	snd.Start()
	for eng.Step() {
		if snd.AckedBytes() >= 512*50 {
			break
		}
	}
	if snd.Cwnd() < 8 {
		t.Fatalf("cwnd = %.1f after 50 segments, slow start did not open", snd.Cwnd())
	}
	// Force a timeout by silencing the receiver: unbind its port so
	// every in-flight segment is lost.
	delete(r.tcpPorts, 8080)
	eng.RunFor(2 * sim.Second)
	if snd.Timeouts.Value() == 0 {
		t.Fatal("no RTO after the receiver vanished")
	}
	if snd.Cwnd() != 1 {
		t.Fatalf("cwnd = %v after RTO, want Tahoe collapse to 1", snd.Cwnd())
	}
}

// TestTCPSurvivesLossWithRecovery: drops inflicted by a competing flood
// trigger fast retransmit/RTO, and the transfer still completes on the
// polled kernel.
func TestTCPSurvivesLossWithRecovery(t *testing.T) {
	const total = 200_000
	snd, rx, _ := tcpTransfer(t, ModePolled, total, 9000, 10*sim.Second)
	if !snd.Done {
		t.Fatalf("transfer incomplete under flood: acked %d (rtx=%d to=%d)",
			snd.AckedBytes(), snd.Retransmits.Value(), snd.Timeouts.Value())
	}
	if snd.Retransmits.Value()+snd.Timeouts.Value() == 0 {
		t.Log("note: no loss recovery was needed (flood did not induce loss)")
	}
	if rx.GoodputBytes < total {
		t.Fatalf("receiver got %d bytes", rx.GoodputBytes)
	}
}

// TestTCPUnderLivelock is §7.1's unmeasured experiment: a background
// flood on another interface livelocks the unmodified kernel and the
// TCP transfer starves with it; the polled kernel's round-robin keeps
// the transfer moving.
func TestTCPUnderLivelock(t *testing.T) {
	const window = 4 * sim.Second
	sndU, _, _ := tcpTransfer(t, ModeUnmodified, 0, 12000, window)
	sndP, _, _ := tcpTransfer(t, ModePolled, 0, 12000, window)
	unmod := float64(sndU.AckedBytes()) / window.Seconds()
	polled := float64(sndP.AckedBytes()) / window.Seconds()
	if polled < 20*unmod {
		t.Fatalf("TCP goodput under flood: polled %.0f B/s vs unmodified %.0f B/s, want >>",
			polled, unmod)
	}
	if polled < 50_000 {
		t.Fatalf("polled TCP goodput %.0f B/s too low under flood", polled)
	}
}

// TestTCPDuplicatePortPanics exercises the registration guard.
func TestTCPDuplicatePortPanics(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRouter(eng, Config{Mode: ModePolled, Quota: 5})
	r.OpenTCPReceiver(8080)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate TCP port accepted")
		}
	}()
	r.OpenTCPReceiver(8080)
}

// TestRenoResendsLessThanTahoe: for the same lossy transfer, Reno's
// fast recovery retransmits only missing segments while Tahoe's
// go-back-N resends whole windows, so Tahoe transmits more segments for
// the same goodput.
func TestRenoResendsLessThanTahoe(t *testing.T) {
	// A moderate flood through the *unmodified* kernel produces steady
	// ring/ipintrq losses without complete livelock — the regime where
	// recovery style matters. (The polled kernel's round-robin prevents
	// loss entirely in this setup, so both flavors behave identically
	// there.)
	run := func(variant TCPVariant) (sent, timeouts uint64, done bool) {
		eng := sim.NewEngine()
		r := NewRouter(eng, Config{Mode: ModeUnmodified, InputNICs: 2})
		r.OpenTCPReceiver(8080)
		snd := r.AttachTCPSender(0, TCPSenderConfig{
			Port: 8080, MSS: 512, TotalBytes: 300_000, Variant: variant})
		gen := r.AttachGenerator(1, workload.ConstantRate{Rate: 3500, JitterFrac: 0.05}, 0)
		gen.Start()
		snd.Start()
		eng.Run(sim.Time(10 * sim.Second))
		sent, timeouts, done = snd.SegmentsSent.Value(), snd.Timeouts.Value(), snd.Done
		// End through Finish, so the run's conservation and cycle audits
		// must pass too.
		if _, err := r.Finish(200 * sim.Millisecond); err != nil {
			t.Fatalf("%v: %v", variant, err)
		}
		return sent, timeouts, done
	}
	tahoeSent, _, tahoeDone := run(VariantTahoe)
	renoSent, _, renoDone := run(VariantReno)
	if !tahoeDone || !renoDone {
		t.Fatalf("transfer incomplete: tahoe=%v reno=%v", tahoeDone, renoDone)
	}
	if renoSent >= tahoeSent {
		t.Fatalf("Reno sent %d segments, Tahoe %d — expected strictly fewer under loss",
			renoSent, tahoeSent)
	}
}

// TestTCPDamagedSegmentsCloseTheirRecords: segments the TCP input path
// rejects as damaged leave through the drop choke point, so each one
// closes its provenance record and a drained run holds none open.
func TestTCPDamagedSegmentsCloseTheirRecords(t *testing.T) {
	eng := sim.NewEngine()
	pr := prof.New()
	r := NewRouter(eng, Config{Mode: ModePolled, Quota: 5, Profile: pr, Fault: fault.Config{CorruptProb: 0.05}})
	r.OpenTCPReceiver(8080)
	r.AttachTCPSender(0, TCPSenderConfig{Port: 8080, MSS: 512, TotalBytes: 200_000}).Start()
	eng.Run(sim.Time(2 * sim.Second))
	a, err := r.Finish(100 * sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if a.FwdErrors == 0 || pr.DropCount(prov.ReasonMalformed) == 0 {
		t.Fatalf("no damaged segment was dropped (fwd errors %d)", a.FwdErrors)
	}
	if pr.Live() != 0 {
		t.Fatalf("%d provenance records still open after the drain", pr.Live())
	}
}
