package kernel

import (
	"livelock/internal/netstack"
)

// This file is the variant-parameterized TCP congestion-control state
// machine, split from the wire-facing sender so the conformance suite
// can drive it packet-by-packet: every cwnd/ssthresh/retransmit
// decision is made here, with no clock, no buffers, and no router.
// The sender (tcp.go) feeds it ACK and timeout events and executes the
// decisions it queues.
//
// The variants follow RFC 5681 (Reno fast retransmit / fast recovery
// with window inflation and deflation), RFC 6582 (NewReno partial-ACK
// handling: stay in recovery, retransmit the next hole, deflate by the
// amount acknowledged) and RFC 2018 / a simplified RFC 6675 (SACK
// scoreboard, lowest-hole retransmission, scoreboard discarded on RTO
// so a reneging receiver is always re-served by go-back-N).

// TCPVariant selects the sender's loss-recovery algorithm.
type TCPVariant int

const (
	// VariantTahoe reacts to any loss signal by collapsing to cwnd=1
	// and going back to the hole (the historical behavior, and the
	// zero value).
	VariantTahoe TCPVariant = iota
	// VariantReno adds fast recovery: retransmit the hole, halve the
	// window, inflate by one segment per further dupack, and exit
	// recovery on the first ACK that advances — classic Reno, which
	// stalls when a window loses several segments.
	VariantReno
	// VariantNewReno keeps recovery open across partial ACKs: each one
	// retransmits the next hole immediately instead of waiting for
	// three more dupacks or an RTO.
	VariantNewReno
	// VariantSACK keeps a scoreboard of receiver-reported blocks and
	// retransmits only data no block covers; new data keeps flowing
	// during recovery because sacked bytes do not occupy the window.
	VariantSACK
)

// String names the variant for flags and series labels.
func (v TCPVariant) String() string {
	switch v {
	case VariantTahoe:
		return "tahoe"
	case VariantReno:
		return "reno"
	case VariantNewReno:
		return "newreno"
	case VariantSACK:
		return "sack"
	}
	return "invalid"
}

// ccRange is [start, end) in absolute sequence space.
type ccRange struct{ start, end uint64 }

// maxSACKRanges bounds the sender scoreboard; blocks beyond it merge
// into their neighbors or are ignored (safe: an un-remembered block is
// retransmitted, never skipped).
const maxSACKRanges = 16

// ccRtxQueue bounds the retransmit decisions one event can queue.
const ccRtxQueue = 4

// ccMachine is the sender's congestion-control state. All quantities
// are absolute byte sequence numbers except cwnd/ssthresh, which are in
// segments (matching the paper-era BSD convention the Tahoe code used).
type ccMachine struct {
	variant TCPVariant
	mss     uint64
	maxCwnd float64

	una, nxt uint64
	cwnd     float64
	ssthresh float64
	dupacks  int

	// Recovery state (Reno/NewReno/SACK). recover is snd.nxt when the
	// episode began: an ACK at or beyond it is a full ACK.
	inRecovery bool
	recover    uint64

	// SACK scoreboard: disjoint sacked ranges above una, ascending.
	// highRtx is the end of the highest hole retransmitted this
	// episode, so each hole is retransmitted once per episode.
	sacked  [maxSACKRanges]ccRange
	nsacked int
	highRtx uint64

	// Decisions queued by the last event, drained by the sender:
	// retransmit rtx[:nrtx] (one MSS-or-tail segment each), and, when
	// resetNxt is set, pull nxt back to una (go-back-N).
	rtx      [ccRtxQueue]uint64
	nrtx     int
	resetNxt bool

	// lossEvents counts three-dupack loss signals (cumulative); the
	// sender mirrors it into its Retransmits counter.
	lossEvents uint64
}

func newCCMachine(variant TCPVariant, mss uint64, maxCwnd int) *ccMachine {
	return &ccMachine{
		variant: variant, mss: mss, maxCwnd: float64(maxCwnd),
		cwnd: 1, ssthresh: float64(maxCwnd),
	}
}

// windowLimit returns the right edge (exclusive) of what may be in
// flight. Sacked bytes do not occupy the SACK variant's window, which
// is what lets it keep sending during recovery (the pipe algorithm,
// simplified).
func (m *ccMachine) windowLimit() uint64 {
	w := m.cwnd
	if w > m.maxCwnd {
		w = m.maxCwnd
	}
	if w < 1 {
		w = 1
	}
	limit := m.una + uint64(w)*m.mss
	if m.variant == VariantSACK {
		limit += m.sackedBytes()
	}
	return limit
}

func (m *ccMachine) sackedBytes() uint64 {
	var t uint64
	for i := 0; i < m.nsacked; i++ {
		t += m.sacked[i].end - m.sacked[i].start
	}
	return t
}

// queueRtx records a retransmit decision (dropped if the event already
// queued ccRtxQueue of them; the RTO backstop covers the remainder).
func (m *ccMachine) queueRtx(seq uint64) {
	if m.nrtx < ccRtxQueue {
		m.rtx[m.nrtx] = seq
		m.nrtx++
	}
}

// onAck processes one cumulative ACK with optional SACK blocks and
// queues the resulting decisions.
func (m *ccMachine) onAck(ack uint64, sacks []netstack.SACKBlock) {
	if m.variant == VariantSACK {
		for _, b := range sacks {
			m.addSACK(uint64(b.Start), uint64(b.End))
		}
	}
	switch {
	case ack > m.una:
		m.advance(ack)
	case ack == m.una:
		m.duplicate()
	}
	// Older ACKs (ack < una) carry no new information and are ignored,
	// as tcp_input does.
}

// advance handles an ACK for new data.
func (m *ccMachine) advance(ack uint64) {
	acked := ack - m.una
	m.una = ack
	if m.una > m.nxt {
		// An ACK beyond nxt can only follow our own state reset; treat
		// everything as sent.
		m.nxt = m.una
	}
	m.pruneSACK()
	if !m.inRecovery {
		m.dupacks = 0
		m.grow()
		return
	}
	if ack >= m.recover {
		// Full ACK: the episode's whole window is accounted for.
		// Deflate to ssthresh and resume normal growth.
		m.exitRecovery()
		return
	}
	// Partial ACK: some of the window is still missing.
	switch m.variant {
	case VariantReno:
		// Classic Reno has no partial-ACK state: the first ACK that
		// advances ends recovery. A second hole in the same window now
		// needs three more dupacks or the RTO — the stall NewReno was
		// invented to fix.
		m.exitRecovery()
	case VariantNewReno:
		// RFC 6582 §3.2: retransmit the next hole at once, deflate the
		// window by the amount acknowledged, add back one MSS for the
		// retransmission leaving the network.
		m.queueRtx(m.una)
		m.cwnd -= float64(acked) / float64(m.mss)
		m.cwnd++
		if m.cwnd < 1 {
			m.cwnd = 1
		}
		m.dupacks = 0
	case VariantSACK:
		m.dupacks = 0
		if m.highRtx < m.una {
			m.highRtx = m.una
		}
		m.rtxNextHole()
	}
}

// exitRecovery deflates the inflated window back to ssthresh.
func (m *ccMachine) exitRecovery() {
	m.inRecovery = false
	m.cwnd = m.ssthresh
	m.dupacks = 0
	m.highRtx = 0
}

// grow applies normal window growth: slow start below ssthresh, else
// congestion avoidance (+1/cwnd per ACK).
func (m *ccMachine) grow() {
	if m.cwnd < m.ssthresh {
		m.cwnd++
	} else {
		m.cwnd += 1 / m.cwnd
	}
}

// duplicate handles an ACK that merely repeats una.
func (m *ccMachine) duplicate() {
	if m.inRecovery {
		switch m.variant {
		case VariantReno, VariantNewReno:
			// Window inflation (RFC 5681 §3.2 step 4): each further
			// dupack means another segment left the network.
			m.cwnd++
		case VariantSACK:
			// New blocks may have exposed another hole.
			m.rtxNextHole()
		}
		return
	}
	m.dupacks++
	if m.dupacks != 3 {
		return
	}
	// Third duplicate ACK: a loss signal.
	m.lossEvents++
	m.ssthresh = m.cwnd / 2
	if m.ssthresh < 2 {
		m.ssthresh = 2
	}
	switch m.variant {
	case VariantTahoe:
		// Collapse and go back to the hole.
		m.cwnd = 1
		m.dupacks = 0
		m.resetNxt = true
	case VariantReno, VariantNewReno:
		m.inRecovery = true
		m.recover = m.nxt
		m.queueRtx(m.una)
		// Halve, then inflate by the three segments the dupacks proved
		// were delivered.
		m.cwnd = m.ssthresh + 3
	case VariantSACK:
		m.inRecovery = true
		m.recover = m.nxt
		m.cwnd = m.ssthresh
		m.highRtx = m.una
		m.rtxNextHole()
	}
}

// onRTO handles a retransmission timeout: collapse, go back to the
// hole, and — per RFC 2018 §9, the renege rule — discard the
// scoreboard, because a receiver is allowed to throw sacked data away.
func (m *ccMachine) onRTO() {
	m.ssthresh = m.cwnd / 2
	if m.ssthresh < 2 {
		m.ssthresh = 2
	}
	m.cwnd = 1
	m.dupacks = 0
	m.inRecovery = false
	m.nsacked = 0
	m.highRtx = 0
	m.resetNxt = true
}

// rtxNextHole queues the lowest unsacked hole not yet retransmitted
// this episode (SACK recovery only). One hole per event keeps the
// retransmission rate ACK-clocked.
func (m *ccMachine) rtxNextHole() {
	seq := m.una
	if seq < m.highRtx {
		seq = m.highRtx
	}
	for i := 0; i < m.nsacked; i++ {
		r := m.sacked[i]
		if seq < r.start {
			break
		}
		if seq < r.end {
			seq = r.end
		}
	}
	if m.nsacked == 0 || seq >= m.sacked[m.nsacked-1].end {
		// No sacked data above seq proves it lost; leave it to new
		// dupacks or the RTO.
		return
	}
	m.queueRtx(seq)
	m.highRtx = seq + m.mss
}

// addSACK merges [start, end) into the scoreboard, keeping ranges
// disjoint and ascending. Blocks at or below una are stale.
func (m *ccMachine) addSACK(start, end uint64) {
	if end <= start || end <= m.una {
		return
	}
	if start < m.una {
		start = m.una
	}
	// Find the insertion window [i, j) of ranges overlapping or
	// adjacent to the new block.
	i := 0
	for i < m.nsacked && m.sacked[i].end < start {
		i++
	}
	j := i
	for j < m.nsacked && m.sacked[j].start <= end {
		if m.sacked[j].start < start {
			start = m.sacked[j].start
		}
		if m.sacked[j].end > end {
			end = m.sacked[j].end
		}
		j++
	}
	if i == j {
		// Pure insertion.
		if m.nsacked == maxSACKRanges {
			return // full: forget the block, it will be retransmitted
		}
		copy(m.sacked[i+1:m.nsacked+1], m.sacked[i:m.nsacked])
		m.sacked[i] = ccRange{start, end}
		m.nsacked++
		return
	}
	// Replace the window with the merged range.
	m.sacked[i] = ccRange{start, end}
	copy(m.sacked[i+1:], m.sacked[j:m.nsacked])
	m.nsacked -= j - i - 1
}

// pruneSACK drops scoreboard ranges the cumulative ACK has covered.
func (m *ccMachine) pruneSACK() {
	if m.nsacked == 0 {
		return
	}
	i := 0
	for i < m.nsacked && m.sacked[i].end <= m.una {
		i++
	}
	if i > 0 {
		copy(m.sacked[:], m.sacked[i:m.nsacked])
		m.nsacked -= i
	}
	if m.nsacked > 0 && m.sacked[0].start < m.una {
		m.sacked[0].start = m.una
	}
}
