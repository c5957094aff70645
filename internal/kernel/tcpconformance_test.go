package kernel

import (
	"testing"

	"livelock/internal/netstack"
	"livelock/internal/sim"
)

// TCP conformance suite: table-driven packet-level scripts driving the
// congestion-control machine (tcpcc.go) one ACK at a time and asserting
// every cwnd/ssthresh/retransmit decision against RFC 5681 (Reno fast
// retransmit / fast recovery), RFC 6582 (NewReno partial ACKs) and
// RFC 2018 (SACK, including the renege rule), plus packet-level scripts
// for the receiver half (SYN handling, SACK-block generation,
// resequencing). Sequence numbers in scripts are in MSS units (the
// harness multiplies by ccMSS) so the tables read like the RFC figures.

const ccMSS = 100

// ccStep is one scripted event and the state expected after it.
type ccStep struct {
	label string

	// The event: an RTO, or a cumulative ACK (in MSS units) with
	// optional SACK blocks ([start, end) in MSS units).
	rto   bool
	ack   int
	sacks [][2]int

	// Expectations (cwnd/ssthresh < 0 means "don't check").
	cwnd     float64
	ssthresh float64
	rtx      []int // retransmissions queued by the event, MSS units
	reset    bool  // go-back-N (nxt pulled back to una) demanded
	rec      int   // -1 don't check, 0 want out of recovery, 1 want in
}

// runCCScript drives a machine through the script, emulating the
// sender's drain loop: queued retransmits are collected, go-back-N
// resets applied, and the send window refilled after every event (the
// application always has data).
func runCCScript(t *testing.T, variant TCPVariant, steps []ccStep) {
	t.Helper()
	m := newCCMachine(variant, ccMSS, 64)
	fill := func() {
		if lim := m.windowLimit(); m.nxt < lim {
			m.nxt = lim
		}
	}
	fill()
	for _, st := range steps {
		if st.rto {
			m.onRTO()
		} else {
			var blocks []netstack.SACKBlock
			for _, b := range st.sacks {
				blocks = append(blocks, netstack.SACKBlock{
					Start: uint32(b[0] * ccMSS), End: uint32(b[1] * ccMSS),
				})
			}
			m.onAck(uint64(st.ack)*ccMSS, blocks)
		}
		var drained []int
		for i := 0; i < m.nrtx; i++ {
			drained = append(drained, int(m.rtx[i]/ccMSS))
		}
		m.nrtx = 0
		reset := m.resetNxt
		if reset {
			m.resetNxt = false
			m.nxt = m.una
		}
		fill()
		if st.cwnd >= 0 && m.cwnd != st.cwnd {
			t.Fatalf("%s: cwnd = %v, want %v", st.label, m.cwnd, st.cwnd)
		}
		if st.ssthresh >= 0 && m.ssthresh != st.ssthresh {
			t.Fatalf("%s: ssthresh = %v, want %v", st.label, m.ssthresh, st.ssthresh)
		}
		if len(drained) != len(st.rtx) {
			t.Fatalf("%s: retransmits %v, want %v", st.label, drained, st.rtx)
		}
		for i := range drained {
			if drained[i] != st.rtx[i] {
				t.Fatalf("%s: retransmits %v, want %v", st.label, drained, st.rtx)
			}
		}
		if reset != st.reset {
			t.Fatalf("%s: go-back-N = %v, want %v", st.label, reset, st.reset)
		}
		if st.rec >= 0 && m.inRecovery != (st.rec == 1) {
			t.Fatalf("%s: inRecovery = %v, want %v", st.label, m.inRecovery, st.rec == 1)
		}
	}
}

// noCheck marks cwnd/ssthresh fields that a step does not assert.
const noCheck = -1

// ccGrowTo8 opens the window through slow start: seven full ACKs take
// cwnd from 1 to 8 with una = 28 MSS and (after refill) nxt = 36 MSS.
func ccGrowTo8() []ccStep {
	return []ccStep{
		{label: "ss1", ack: 1, cwnd: 2, ssthresh: noCheck, rec: 0},
		{label: "ss2", ack: 3, cwnd: 3, ssthresh: noCheck, rec: -1},
		{label: "ss3", ack: 6, cwnd: 4, ssthresh: noCheck, rec: -1},
		{label: "ss4", ack: 10, cwnd: 5, ssthresh: noCheck, rec: -1},
		{label: "ss5", ack: 15, cwnd: 6, ssthresh: noCheck, rec: -1},
		{label: "ss6", ack: 21, cwnd: 7, ssthresh: noCheck, rec: -1},
		{label: "ss7", ack: 28, cwnd: 8, ssthresh: noCheck, rec: -1},
	}
}

// TestConformanceSlowStart: every variant doubles per round below
// ssthresh (RFC 5681 §3.1) — each full ACK adds one segment.
func TestConformanceSlowStart(t *testing.T) {
	for _, v := range []TCPVariant{VariantTahoe, VariantReno, VariantNewReno, VariantSACK} {
		t.Run(v.String(), func(t *testing.T) { runCCScript(t, v, ccGrowTo8()) })
	}
}

// TestConformanceCongestionAvoidance: above ssthresh growth is +1/cwnd
// per ACK (RFC 5681 §3.1 eq. 3, the pre-ABC form the Tahoe code used).
func TestConformanceCongestionAvoidance(t *testing.T) {
	m := newCCMachine(VariantReno, ccMSS, 64)
	m.ssthresh = 2
	m.cwnd = 2
	m.onAck(1*ccMSS, nil)
	if want := 2.5; m.cwnd != want {
		t.Fatalf("cwnd = %v, want %v", m.cwnd, want)
	}
	m.onAck(2*ccMSS, nil)
	if want := 2.9; m.cwnd != want {
		t.Fatalf("cwnd = %v, want %v", m.cwnd, want)
	}
}

// TestConformanceTahoeFastRetransmit: three duplicate ACKs halve
// ssthresh, collapse cwnd to 1, and go back to the hole; no segment is
// individually retransmitted (go-back-N resends it).
func TestConformanceTahoeFastRetransmit(t *testing.T) {
	steps := append(ccGrowTo8(),
		ccStep{label: "dup1", ack: 28, cwnd: 8, ssthresh: noCheck, rec: 0},
		ccStep{label: "dup2", ack: 28, cwnd: 8, ssthresh: noCheck, rec: 0},
		ccStep{label: "dup3", ack: 28, cwnd: 1, ssthresh: 4, reset: true, rec: 0},
		ccStep{label: "recover", ack: 36, cwnd: 2, ssthresh: 4, rec: 0},
	)
	runCCScript(t, VariantTahoe, steps)
}

// TestConformanceRenoFastRecovery: RFC 5681 §3.2 — on the third dupack
// retransmit the hole and set cwnd = ssthresh + 3; each further dupack
// inflates by one; the ACK covering recover deflates to ssthresh.
func TestConformanceRenoFastRecovery(t *testing.T) {
	steps := append(ccGrowTo8(),
		ccStep{label: "dup1", ack: 28, cwnd: 8, ssthresh: noCheck, rec: 0},
		ccStep{label: "dup2", ack: 28, cwnd: 8, ssthresh: noCheck, rec: 0},
		ccStep{label: "dup3", ack: 28, cwnd: 7, ssthresh: 4, rtx: []int{28}, rec: 1},
		ccStep{label: "dup4", ack: 28, cwnd: 8, ssthresh: 4, rec: 1},
		ccStep{label: "full-ack", ack: 36, cwnd: 4, ssthresh: 4, rec: 0},
	)
	runCCScript(t, VariantReno, steps)
}

// TestConformanceRenoPartialAckStalls: classic Reno ends recovery on
// the first advancing ACK even when it exposes a second hole — the
// stall RFC 6582 §1 describes and NewReno fixes. No retransmission is
// queued for the new hole.
func TestConformanceRenoPartialAckStalls(t *testing.T) {
	steps := append(ccGrowTo8(),
		ccStep{label: "dup1", ack: 28, cwnd: 8, ssthresh: noCheck, rec: 0},
		ccStep{label: "dup2", ack: 28, cwnd: 8, ssthresh: noCheck, rec: 0},
		ccStep{label: "dup3", ack: 28, cwnd: 7, ssthresh: 4, rtx: []int{28}, rec: 1},
		ccStep{label: "partial", ack: 30, cwnd: 4, ssthresh: 4, rec: 0},
	)
	runCCScript(t, VariantReno, steps)
}

// TestConformanceNewRenoPartialAcks: RFC 6582 §3.2 — a partial ACK
// retransmits the next hole immediately, deflates by the amount
// acknowledged and adds back one MSS, and recovery stays open until the
// ACK reaches recover (here 36, the nxt at episode entry).
func TestConformanceNewRenoPartialAcks(t *testing.T) {
	steps := append(ccGrowTo8(),
		ccStep{label: "dup1", ack: 28, cwnd: 8, ssthresh: noCheck, rec: 0},
		ccStep{label: "dup2", ack: 28, cwnd: 8, ssthresh: noCheck, rec: 0},
		ccStep{label: "dup3", ack: 28, cwnd: 7, ssthresh: 4, rtx: []int{28}, rec: 1},
		// Partial ACK for two segments: cwnd 7 − 2 + 1 = 6, hole at 30
		// retransmitted at once — no three-dupack wait, no RTO.
		ccStep{label: "partial1", ack: 30, cwnd: 6, ssthresh: 4, rtx: []int{30}, rec: 1},
		// Partial ACK for one segment: cwnd 6 − 1 + 1 = 6, hole at 31.
		ccStep{label: "partial2", ack: 31, cwnd: 6, ssthresh: 4, rtx: []int{31}, rec: 1},
		// The full ACK (exactly recover = 36) ends the episode.
		ccStep{label: "full-ack", ack: 36, cwnd: 4, ssthresh: 4, rec: 0},
	)
	runCCScript(t, VariantNewReno, steps)
}

// TestConformanceSACKRecovery: two holes (28 and 31) in one window.
// The scoreboard retransmits hole 31 on the next dupack after entering
// recovery — without waiting for a partial ACK (NewReno) or an RTO
// (Reno) — and never retransmits sacked data.
func TestConformanceSACKRecovery(t *testing.T) {
	steps := append(ccGrowTo8(),
		// Arrivals 29, 30 produce dupacks with growing SACK blocks.
		ccStep{label: "dup1", ack: 28, sacks: [][2]int{{29, 30}}, cwnd: 8, ssthresh: noCheck, rec: 0},
		ccStep{label: "dup2", ack: 28, sacks: [][2]int{{29, 31}}, cwnd: 8, ssthresh: noCheck, rec: 0},
		// Arrival 32 (above the second hole): loss signal. cwnd goes to
		// ssthresh with no +3 inflation — sacked bytes are excluded from
		// the window instead. Lowest hole (28) retransmitted.
		ccStep{label: "dup3", ack: 28, sacks: [][2]int{{32, 33}, {29, 31}},
			cwnd: 4, ssthresh: 4, rtx: []int{28}, rec: 1},
		// Arrival 33: the scoreboard exposes hole 31; retransmit it now.
		ccStep{label: "dup4", ack: 28, sacks: [][2]int{{32, 34}},
			cwnd: 4, ssthresh: 4, rtx: []int{31}, rec: 1},
		// Arrival 34: no unretransmitted hole below the highest sacked
		// block remains — nothing to do, and sacked data is never resent.
		ccStep{label: "dup5", ack: 28, sacks: [][2]int{{32, 35}},
			cwnd: 4, ssthresh: 4, rec: 1},
		// Retransmitted 28 arrives: partial ACK to 31 (hole 31's rtx is
		// still in flight); no new retransmission is queued for it.
		ccStep{label: "partial1", ack: 31, cwnd: 4, ssthresh: 4, rec: 1},
		// Retransmitted 31 arrives: ACK to 36. Still partial — because
		// sacked bytes are excluded from the window, segments 36 and 37
		// went out during the dupacks, so recover is 38.
		ccStep{label: "partial2", ack: 36, cwnd: 4, ssthresh: 4, rec: 1},
		// The ACK covering recover (38) ends the episode.
		ccStep{label: "full-ack", ack: 38, cwnd: 4, ssthresh: 4, rec: 0},
	)
	runCCScript(t, VariantSACK, steps)
}

// TestConformanceSACKRenege: RFC 2018 §9 — after an RTO the sender must
// discard the scoreboard and retransmit from una by go-back-N, because
// the receiver is allowed to throw reneged data away. The window limit
// must stop crediting sacked bytes immediately.
func TestConformanceSACKRenege(t *testing.T) {
	m := newCCMachine(VariantSACK, ccMSS, 64)
	m.cwnd = 8
	m.una, m.nxt = 28*ccMSS, 36*ccMSS
	m.onAck(28*ccMSS, []netstack.SACKBlock{{Start: 29 * ccMSS, End: 33 * ccMSS}})
	if m.nsacked != 1 {
		t.Fatalf("nsacked = %d, want 1", m.nsacked)
	}
	withSACK := m.windowLimit()
	if want := uint64(28*ccMSS + 8*ccMSS + 4*ccMSS); withSACK != want {
		t.Fatalf("windowLimit = %d, want %d (sacked bytes excluded from flight)", withSACK, want)
	}
	m.onRTO()
	if m.nsacked != 0 {
		t.Fatalf("scoreboard survived RTO: nsacked = %d", m.nsacked)
	}
	if !m.resetNxt || m.cwnd != 1 {
		t.Fatalf("RTO: resetNxt=%v cwnd=%v, want go-back-N at cwnd 1", m.resetNxt, m.cwnd)
	}
	if got, want := m.windowLimit(), uint64(28*ccMSS+1*ccMSS); got != want {
		t.Fatalf("windowLimit after renege = %d, want %d", got, want)
	}
}

// TestConformanceRTOAllVariants: an RTO halves ssthresh (floor 2),
// collapses cwnd to 1 and goes back to una for every variant (RFC 5681
// §3.1 step on timeout; Tahoe and Reno behave identically here).
func TestConformanceRTOAllVariants(t *testing.T) {
	for _, v := range []TCPVariant{VariantTahoe, VariantReno, VariantNewReno, VariantSACK} {
		steps := append(ccGrowTo8(),
			ccStep{label: "rto", rto: true, cwnd: 1, ssthresh: 4, reset: true, rec: 0},
			ccStep{label: "regrow", ack: 36, cwnd: 2, ssthresh: 4, rec: 0},
		)
		t.Run(v.String(), func(t *testing.T) { runCCScript(t, v, steps) })
	}
}

// TestConformanceStaleAndStrayAcks: ACKs below una are ignored, and
// SACK blocks at or below una are stale and must not enter the
// scoreboard (RFC 2018 §4).
func TestConformanceStaleAndStrayAcks(t *testing.T) {
	m := newCCMachine(VariantSACK, ccMSS, 64)
	m.una, m.nxt, m.cwnd = 10*ccMSS, 20*ccMSS, 5
	m.onAck(5*ccMSS, nil) // old ACK: no dupack, no growth
	if m.dupacks != 0 || m.cwnd != 5 {
		t.Fatalf("old ACK changed state: dupacks=%d cwnd=%v", m.dupacks, m.cwnd)
	}
	m.onAck(10*ccMSS, []netstack.SACKBlock{{Start: 4 * ccMSS, End: 9 * ccMSS}})
	if m.nsacked != 0 {
		t.Fatalf("stale SACK block entered the scoreboard (nsacked=%d)", m.nsacked)
	}
}

// tcpRxHarness builds a real router with a receiver bound to port 8080
// so packet-level receiver scripts can inject segments directly.
func tcpRxHarness(t *testing.T) (*sim.Engine, *Router, *TCPReceiver) {
	t.Helper()
	eng := sim.NewEngine()
	r := NewRouter(eng, Config{Mode: ModePolled, Quota: 5})
	rx := r.OpenTCPReceiver(8080)
	return eng, r, rx
}

// tcpRxSegment injects one segment into the receiver the way
// deliverTCP would, returning the outcome classification.
func tcpRxSegment(rx *TCPReceiver, seq uint64, payloadLen int, flags uint8) tcpSegOutcome {
	ip := netstack.IPv4Header{Src: InputSourceIP(0), Dst: RouterIP(0)}
	th := netstack.TCPHeader{
		SrcPort: 7000, DstPort: rx.port,
		Seq: uint32(seq), Flags: flags,
	}
	return rx.segment(ip, th, payloadLen)
}

// TestConformanceReceiverSYN: a bare SYN (no payload) must not advance
// rcvNxt in this handshake-less model, and must still be ACKed so a
// probing sender gets an answer.
func TestConformanceReceiverSYN(t *testing.T) {
	_, _, rx := tcpRxHarness(t)
	before := rx.AcksSent.Value()
	if out := tcpRxSegment(rx, 0, 0, netstack.TCPSyn); out != tcpSegAccept {
		t.Fatalf("SYN outcome = %v, want accept", out)
	}
	if rx.RcvNxt() != 0 {
		t.Fatalf("SYN advanced rcvNxt to %d", rx.RcvNxt())
	}
	if rx.AcksSent.Value() != before+1 {
		t.Fatal("SYN was not ACKed")
	}
}

// TestConformanceReceiverSACKBlocks: SACK blocks report the held ranges
// with the range containing the most recent arrival first (RFC 2018
// §4), merge as holes shrink, and disappear as the gaps fill.
func TestConformanceReceiverSACKBlocks(t *testing.T) {
	_, _, rx := tcpRxHarness(t)
	rx.EnableSACK()
	tcpRxSegment(rx, 0, 100, netstack.TCPAck) // in order: rcvNxt = 100
	if got := rx.sackBlocks(); got != nil {
		t.Fatalf("blocks with nothing held: %v", got)
	}
	tcpRxSegment(rx, 300, 100, netstack.TCPAck) // hole at 100
	tcpRxSegment(rx, 600, 100, netstack.TCPAck) // second hole
	got := rx.sackBlocks()
	want := []netstack.SACKBlock{{Start: 600, End: 700}, {Start: 300, End: 400}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("blocks = %v, want %v (most recent first)", got, want)
	}
	tcpRxSegment(rx, 400, 100, netstack.TCPAck) // merges with [300,400)
	got = rx.sackBlocks()
	want = []netstack.SACKBlock{{Start: 300, End: 500}, {Start: 600, End: 700}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("blocks after merge = %v, want %v", got, want)
	}
	tcpRxSegment(rx, 100, 100, netstack.TCPAck)
	tcpRxSegment(rx, 200, 100, netstack.TCPAck) // fills to 500 via held range
	if rx.RcvNxt() != 500 {
		t.Fatalf("rcvNxt = %d, want 500", rx.RcvNxt())
	}
	got = rx.sackBlocks()
	if len(got) != 1 || got[0] != (netstack.SACKBlock{Start: 600, End: 700}) {
		t.Fatalf("blocks after drain = %v", got)
	}
	if v := rx.OutOfOrder.Value(); v != 3 {
		t.Fatalf("OutOfOrder = %d, want 3", v)
	}
}

// TestConformanceReceiverDupAndOverflow: data below rcvNxt is counted
// as duplicate (the spurious-retransmit ledger) and classified
// tcpSegDup; a full range table drops unmergeable out-of-order data and
// classifies it tcpSegOOODrop.
func TestConformanceReceiverDupAndOverflow(t *testing.T) {
	_, _, rx := tcpRxHarness(t)
	tcpRxSegment(rx, 0, 100, netstack.TCPAck)
	if out := tcpRxSegment(rx, 0, 100, netstack.TCPAck); out != tcpSegDup {
		t.Fatalf("duplicate outcome = %v, want dup", out)
	}
	if rx.Duplicates.Value() != 1 {
		t.Fatalf("Duplicates = %d", rx.Duplicates.Value())
	}
	for i := 0; i < rx.oooCap; i++ {
		seq := 200 + uint64(i)*200 // disjoint: each its own range
		if out := tcpRxSegment(rx, seq, 100, netstack.TCPAck); out != tcpSegAccept {
			t.Fatalf("range %d outcome = %v, want accept", i, out)
		}
	}
	overflow := 200 + uint64(rx.oooCap)*200
	if out := tcpRxSegment(rx, overflow, 100, netstack.TCPAck); out != tcpSegOOODrop {
		t.Fatalf("overflow outcome = %v, want ooo-drop", out)
	}
	if rx.OOODrops.Value() != 1 {
		t.Fatalf("OOODrops = %d", rx.OOODrops.Value())
	}
	// A mergeable segment must still be absorbed at capacity.
	if out := tcpRxSegment(rx, 300, 100, netstack.TCPAck); out != tcpSegAccept {
		t.Fatalf("mergeable-at-capacity outcome = %v, want accept", out)
	}
}

// TestConformanceReceiverResequencing: with the resequencer on,
// out-of-order arrivals are held silently; a gap that fills within the
// hold produces no duplicate ACKs at all, while a gap that outlives the
// hold starts signaling so fast retransmit still works for real loss.
func TestConformanceReceiverResequencing(t *testing.T) {
	eng, _, rx := tcpRxHarness(t)
	rx.SetResequencing(5 * sim.Millisecond)

	// Phase 1: reorder absorbed. The out-of-order arrival is silent.
	acks := rx.AcksSent.Value()
	tcpRxSegment(rx, 100, 100, netstack.TCPAck)
	if rx.AcksSent.Value() != acks {
		t.Fatal("resequencer leaked a duplicate ACK")
	}
	if rx.AcksSuppressed.Value() != 1 {
		t.Fatalf("AcksSuppressed = %d", rx.AcksSuppressed.Value())
	}
	tcpRxSegment(rx, 0, 100, netstack.TCPAck) // gap fills in time
	if rx.RcvNxt() != 200 {
		t.Fatalf("rcvNxt = %d, want 200", rx.RcvNxt())
	}
	if rx.reseqTimer.Armed() {
		t.Fatal("hold timer still armed after the gap closed")
	}
	eng.RunFor(20 * sim.Millisecond)
	acks = rx.AcksSent.Value()

	// Phase 2: real loss. The hold expires, signaling turns on, and
	// subsequent arrivals produce the dupacks fast retransmit needs.
	tcpRxSegment(rx, 300, 100, netstack.TCPAck) // hole at 200: held
	if rx.AcksSent.Value() != acks {
		t.Fatal("held arrival was ACKed")
	}
	eng.RunFor(20 * sim.Millisecond) // hold expires
	if !rx.signaling {
		t.Fatal("hold expiry did not start signaling")
	}
	if rx.AcksSent.Value() != acks+1 {
		t.Fatalf("hold expiry sent %d ACKs, want 1", rx.AcksSent.Value()-acks)
	}
	tcpRxSegment(rx, 400, 100, netstack.TCPAck) // now a dupack flows
	if rx.AcksSent.Value() != acks+2 {
		t.Fatal("signaling arrival was not ACKed")
	}
	tcpRxSegment(rx, 200, 100, netstack.TCPAck) // retransmit fills the gap
	if rx.RcvNxt() != 500 || rx.signaling {
		t.Fatalf("rcvNxt = %d signaling = %v after gap fill", rx.RcvNxt(), rx.signaling)
	}
}
