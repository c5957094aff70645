package kernel

import (
	"math"

	"livelock/internal/netstack"
	"livelock/internal/prov"
	"livelock/internal/sim"
	"livelock/internal/stats"
)

// This file implements the experiment §7.1 raises but could not run:
// end-system transport performance under the two kernel architectures.
// A TCP bulk sender on a source host streams data to an in-kernel
// receiver on the router (received segments are processed "directly
// from the device driver to the TCP layer", the Van Jacobson structure
// §7.1 cites); ACKs flow back over the source Ethernet and clock the
// sender. The sender's congestion control is the variant-parameterized
// machine in tcpcc.go (Tahoe, Reno, NewReno, or SACK); this file owns
// the wire-facing halves: frames, timers, buffers, and the receiver's
// out-of-order handling, SACK-block generation, and the optional
// resequencing buffer Wu/Demar/Crawford use to repair
// coalescing-induced reordering.

// TCPReceiver is the router-resident receive half: cumulative ACKs, an
// out-of-order buffer kept as merged sequence ranges (which is also
// what SACK blocks report), and goodput accounting.
type TCPReceiver struct {
	r    *Router
	port uint16

	rcvNxt uint64
	ooo    []ccRange // disjoint held ranges above rcvNxt, ascending
	oooCap int       // max ranges held

	// sackEnabled adds SACK blocks to ACKs while out-of-order data is
	// held. Off by default: an option-less receiver emits frames
	// byte-identical to the historical ones.
	sackEnabled bool

	// Resequencing buffer (Wu/Demar/Crawford receiver sorting): while
	// reseqHold > 0, an out-of-order arrival is buffered silently
	// instead of emitting a duplicate ACK. If the gap fills within the
	// hold, reordering was absorbed and the sender never saw a dupack;
	// if the hold timer fires first the receiver turns signaling on and
	// ACKs every arrival again, so a real loss still triggers fast
	// retransmit (just later). signaling clears when the gap closes.
	reseqHold  sim.Duration
	reseqTimer sim.Handle
	signaling  bool

	// Addressing for timer-driven ACKs, captured from the latest
	// segment (the model runs one peer per port).
	peerIP   netstack.Addr
	localIP  netstack.Addr
	peerPort uint16

	// lastRange indexes the ooo range containing the most recent
	// out-of-order arrival; RFC 2018 wants it first in the SACK list.
	lastRange int

	sackScratch [netstack.MaxSACKBlocks]netstack.SACKBlock

	// GoodputBytes counts in-order bytes delivered to the application.
	GoodputBytes uint64
	// Segments, OutOfOrder and Duplicates count arrivals by kind;
	// OOODrops counts segments discarded because the reorder buffer was
	// full; AcksSuppressed counts dupacks the resequencer swallowed.
	Segments       *stats.Counter
	OutOfOrder     *stats.Counter
	Duplicates     *stats.Counter
	OOODrops       *stats.Counter
	AcksSent       *stats.Counter
	AcksSuppressed *stats.Counter
}

// OpenTCPReceiver binds a TCP port on the router for a one-way bulk
// transfer. It panics if the port is already bound.
func (r *Router) OpenTCPReceiver(port uint16) *TCPReceiver {
	if r.smp() {
		// The receiver's delayed-ACK path (tcpReseqFire → emitAck →
		// output) runs as a bare engine callback, outside any
		// netLock critical section; it has only ever run on the
		// uniprocessor model. Refuse rather than race.
		panic("kernel: TCP endpoints require CPUs == 1")
	}
	if _, dup := r.tcpPorts[port]; dup {
		panic("kernel: TCP port already bound")
	}
	rx := &TCPReceiver{
		r: r, port: port,
		ooo: make([]ccRange, 0, 64), oooCap: 64,
		Segments:       stats.NewCounter("tcp.segments"),
		OutOfOrder:     stats.NewCounter("tcp.ooo"),
		Duplicates:     stats.NewCounter("tcp.dup"),
		OOODrops:       stats.NewCounter("tcp.ooodrops"),
		AcksSent:       stats.NewCounter("tcp.acks"),
		AcksSuppressed: stats.NewCounter("tcp.reseq.suppressed"),
	}
	r.tcpPorts[port] = rx
	return rx
}

// EnableSACK makes the receiver report held out-of-order ranges as SACK
// blocks on every ACK (pair with a VariantSACK sender; the model skips
// the SYN-time SACK-permitted negotiation it has no handshake for).
func (rx *TCPReceiver) EnableSACK() { rx.sackEnabled = true }

// SetResequencing enables receiver-side sorting: out-of-order arrivals
// are held for up to hold without emitting duplicate ACKs. Zero
// disables it.
func (rx *TCPReceiver) SetResequencing(hold sim.Duration) { rx.reseqHold = hold }

// RcvNxt returns the next expected sequence number. In-order delivery
// to the application is structural: GoodputBytes always equals RcvNxt
// minus the initial sequence (zero), which the property tests assert.
func (rx *TCPReceiver) RcvNxt() uint64 { return rx.rcvNxt }

// OOOHeld returns how many byte ranges the out-of-order buffer holds.
func (rx *TCPReceiver) OOOHeld() int { return len(rx.ooo) }

// VisitState folds the receiver's forward-relevant state into f one
// word at a time (explore fingerprinting): the reassembly cursor, the
// held ranges, and the resequencer regime. Monotone counters are
// excluded — they cannot influence future behaviour.
func (rx *TCPReceiver) VisitState(f func(uint64)) {
	f(rx.rcvNxt)
	f(uint64(len(rx.ooo)))
	for _, r := range rx.ooo {
		f(r.start)
		f(r.end)
	}
	f(uint64(rx.lastRange))
	f(boolWord(rx.signaling))
	f(boolWord(rx.reseqTimer.Pending()))
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// deliverTCP is ip_input's TCP branch; the caller charged the CPU cost.
//
//lkvet:requires netLock
func (r *Router) deliverTCP(p *netstack.Packet) {
	var ip netstack.IPv4Header
	ipb, err := netstack.EthPayload(p.Data)
	if err != nil || ip.Unmarshal(ipb) != nil {
		r.drop(p, prov.ReasonMalformed)
		return
	}
	var th netstack.TCPHeader
	seg := ipb[netstack.IPv4HeaderLen:ip.TotalLen]
	if !netstack.VerifyTCPChecksum(ip.Src, ip.Dst, seg) || th.Unmarshal(seg) != nil {
		r.drop(p, prov.ReasonMalformed)
		return
	}
	rx := r.tcpPorts[th.DstPort]
	if rx == nil {
		r.drop(p, prov.ReasonNoSocket)
		return
	}
	switch rx.segment(ip, th, len(seg)-th.HeaderLen()) {
	case tcpSegAccept:
		r.finalizeDeliver(prov.StageTCPAccept, p)
		p.Release()
	case tcpSegDup:
		r.drop(p, prov.ReasonTCPDupData)
	case tcpSegOOODrop:
		r.drop(p, prov.ReasonTCPOOOFull)
	}
}

// tcpSegOutcome classifies a segment's fate for provenance accounting.
type tcpSegOutcome int

const (
	tcpSegAccept tcpSegOutcome = iota
	tcpSegDup
	tcpSegOOODrop
)

// segment processes one data segment and emits a cumulative ACK, as
// 4.3BSD's tcp_input does (no delayed ACKs: every segment is ACKed,
// which is also what keeps the sender's clock running) — except when
// the resequencing buffer is absorbing a reorder. Runs inside
// deliverTCP's netLock contract (its ACK goes out through the shared
// output path).
//
//lkvet:requires netLock
func (rx *TCPReceiver) segment(ip netstack.IPv4Header, th netstack.TCPHeader, payloadLen int) tcpSegOutcome {
	rx.Segments.Inc()
	rx.peerIP, rx.localIP, rx.peerPort = ip.Src, ip.Dst, th.SrcPort
	seq := uint64(th.Seq)
	suppress := false
	outcome := tcpSegAccept
	switch {
	case payloadLen == 0:
		// Bare control segment (SYN, FIN, window probe): just re-ACK.
		// The one-way model starts at sequence zero without a
		// handshake, so a SYN must not advance rcvNxt.
	case seq == rx.rcvNxt:
		rx.rcvNxt += uint64(payloadLen)
		rx.GoodputBytes += uint64(payloadLen)
		rx.drainOOO()
		if len(rx.ooo) == 0 {
			// Gap closed: stand the resequencer down.
			rx.signaling = false
			if rx.reseqTimer.Pending() {
				rx.r.Eng.Cancel(rx.reseqTimer)
			}
		}
	case seq > rx.rcvNxt:
		outcome = rx.storeOOO(seq, uint64(payloadLen))
		switch outcome {
		case tcpSegDup:
			rx.Duplicates.Inc()
		default:
			rx.OutOfOrder.Inc()
		}
		if rx.reseqHold > 0 && !rx.signaling {
			suppress = true
			rx.AcksSuppressed.Inc()
			if !rx.reseqTimer.Pending() {
				rx.reseqTimer = rx.r.Eng.AfterCall(rx.reseqHold, tcpReseqFire, rx, nil)
			}
		}
	default:
		rx.Duplicates.Inc()
		outcome = tcpSegDup
	}
	if !suppress {
		rx.emitAck()
	}
	return outcome
}

// drainOOO advances rcvNxt through any held ranges the new in-order
// data made contiguous.
func (rx *TCPReceiver) drainOOO() {
	n := 0
	for n < len(rx.ooo) && rx.ooo[n].start <= rx.rcvNxt {
		if rx.ooo[n].end > rx.rcvNxt {
			rx.GoodputBytes += rx.ooo[n].end - rx.rcvNxt
			rx.rcvNxt = rx.ooo[n].end
		}
		n++
	}
	if n > 0 {
		rest := copy(rx.ooo, rx.ooo[n:])
		rx.ooo = rx.ooo[:rest]
		rx.lastRange = 0
	}
}

// storeOOO merges [seq, seq+n) into the held ranges. Data already
// wholly covered by a held range classifies as duplicate (with
// MSS-aligned senders that is exactly a retransmitted copy arriving
// after — or before — its original); an unmergeable segment against a
// full range table classifies as a drop (counted).
func (rx *TCPReceiver) storeOOO(seq, n uint64) tcpSegOutcome {
	start, end := seq, seq+n
	i := 0
	for i < len(rx.ooo) && rx.ooo[i].end < start {
		i++
	}
	if i < len(rx.ooo) && rx.ooo[i].start <= start && end <= rx.ooo[i].end {
		return tcpSegDup
	}
	j := i
	for j < len(rx.ooo) && rx.ooo[j].start <= end {
		if rx.ooo[j].start < start {
			start = rx.ooo[j].start
		}
		if rx.ooo[j].end > end {
			end = rx.ooo[j].end
		}
		j++
	}
	if i == j {
		if len(rx.ooo) >= rx.oooCap {
			rx.OOODrops.Inc()
			return tcpSegOOODrop
		}
		rx.ooo = append(rx.ooo, ccRange{})
		copy(rx.ooo[i+1:], rx.ooo[i:])
		rx.ooo[i] = ccRange{start, end}
		rx.lastRange = i
		return tcpSegAccept
	}
	rx.ooo[i] = ccRange{start, end}
	copy(rx.ooo[i+1:], rx.ooo[j:])
	rx.ooo = rx.ooo[:len(rx.ooo)-(j-i-1)]
	rx.lastRange = i
	return tcpSegAccept
}

// tcpReseqFire is the resequencer hold-timer callback (sim.Callback
// shape): the gap did not fill in time, so assume a real loss and start
// signaling — this ACK is the first duplicate the sender will count.
func tcpReseqFire(a, _ any) {
	rx := a.(*TCPReceiver)
	if len(rx.ooo) == 0 {
		rx.signaling = false
		return
	}
	rx.signaling = true
	//lkvet:allow lockguard uniprocessor-only engine callback (OpenTCPReceiver refuses SMP), so no lock exists to hold
	rx.emitAck()
}

// sackBlocks fills the scratch array per RFC 2018: the range containing
// the most recent arrival first, then the remaining ranges newest-last.
func (rx *TCPReceiver) sackBlocks() []netstack.SACKBlock {
	if !rx.sackEnabled || len(rx.ooo) == 0 {
		return nil
	}
	blocks := rx.sackScratch[:0]
	first := rx.lastRange
	if first >= len(rx.ooo) {
		first = 0
	}
	blocks = append(blocks, netstack.SACKBlock{
		Start: uint32(rx.ooo[first].start), End: uint32(rx.ooo[first].end),
	})
	for i := 0; i < len(rx.ooo) && len(blocks) < netstack.MaxSACKBlocks; i++ {
		if i == first {
			continue
		}
		blocks = append(blocks, netstack.SACKBlock{
			Start: uint32(rx.ooo[i].start), End: uint32(rx.ooo[i].end),
		})
	}
	return blocks
}

// emitAck emits the cumulative ACK (with SACK blocks when enabled)
// toward the sender via the normal output path, so ACKs compete for
// descriptors and queue space like any other transmission.
//
//lkvet:requires netLock
func (rx *TCPReceiver) emitAck() {
	r := rx.r
	spec := netstack.TCPSpec{
		SrcIP: rx.localIP, DstIP: rx.peerIP,
		SrcPort: rx.port, DstPort: rx.peerPort,
		Seq: 0, Ack: uint32(rx.rcvNxt), Flags: netstack.TCPAck,
		Window: 0xffff,
		IPID:   uint16(r.nextOwnID),
		SACK:   rx.sackBlocks(),
	}
	port, dstMAC, ok := r.resolve(rx.peerIP, true)
	if !ok {
		return
	}
	spec.SrcMAC = port.nic.MAC()
	spec.DstMAC = dstMAC
	p := r.Pool.Get(spec.FrameLen())
	if p == nil {
		return
	}
	if _, err := netstack.BuildTCPFrame(p.Data, &spec); err != nil {
		panic(err)
	}
	p.ID = r.ownID()
	p.Born = r.Eng.Now()
	r.RouterOriginated.Inc()
	if r.output(port, p, prov.StageReplyQueued) {
		rx.AcksSent.Inc()
	}
}

// TCPSenderConfig describes a bulk transfer.
type TCPSenderConfig struct {
	// Port is the receiver's TCP port on the router.
	Port uint16
	// MSS is the segment payload size (default 512 bytes).
	MSS int
	// TotalBytes ends the transfer when acknowledged (0 = unlimited).
	TotalBytes uint64
	// RTO is the (fixed-base) retransmission timeout (default 200 ms).
	RTO sim.Duration
	// MaxCwnd caps the congestion window, standing in for the
	// receiver's advertised window (default 64 segments).
	MaxCwnd int
	// Variant selects the loss-recovery algorithm (default Tahoe).
	Variant TCPVariant
}

// TCPSender is a bulk sender on a source host. Congestion control
// lives in the ccMachine; the sender executes its decisions with real
// frames, pool buffers, and the RTO timer with exponential backoff.
type TCPSender struct {
	r     *Router
	input int
	cfg   TCPSenderConfig
	m     *ccMachine

	backoff sim.Duration
	timer   sim.Handle
	ipid    uint16
	maxSent uint64 // highest sequence ever transmitted (retransmit detection)
	payload []byte // MSS-sized zero scratch, sliced per segment

	lastLossEvents uint64 // machine loss signals already counted

	sackScratch [netstack.MaxSACKBlocks]netstack.SACKBlock

	// Done is set when TotalBytes are acknowledged; FinishedAt records
	// when.
	Done       bool
	FinishedAt sim.Time

	// SegmentsSent counts transmissions (including retransmissions);
	// Retransmits counts fast-retransmit loss signals (three-dupack
	// episodes), Timeouts counts RTO firings, and RtxSegments counts
	// individual segments sent into previously-covered sequence space —
	// under a reorder-only fault schedule every one of them is by
	// definition spurious, which is what the ledger tests exploit.
	SegmentsSent *stats.Counter
	Retransmits  *stats.Counter
	Timeouts     *stats.Counter
	RtxSegments  *stats.Counter
}

// AttachTCPSender binds a sender to input network i, consuming ACKs
// from that network's reverse sink.
func (r *Router) AttachTCPSender(i int, cfg TCPSenderConfig) *TCPSender {
	if cfg.MSS <= 0 {
		cfg.MSS = 512
	}
	if cfg.RTO <= 0 {
		cfg.RTO = 200 * sim.Millisecond
	}
	if cfg.MaxCwnd <= 0 {
		cfg.MaxCwnd = 64
	}
	s := &TCPSender{
		r: r, input: i, cfg: cfg,
		m:            newCCMachine(cfg.Variant, uint64(cfg.MSS), cfg.MaxCwnd),
		backoff:      cfg.RTO,
		payload:      make([]byte, cfg.MSS),
		SegmentsSent: stats.NewCounter("tcpsnd.segments"),
		Retransmits:  stats.NewCounter("tcpsnd.retransmits"),
		Timeouts:     stats.NewCounter("tcpsnd.timeouts"),
		RtxSegments:  stats.NewCounter("tcpsnd.rtxsegments"),
	}
	rev := r.RevSinks[i]
	prev := rev.OnDeliver
	rev.OnDeliver = func(p *netstack.Packet) {
		if prev != nil {
			prev(p)
		}
		s.onFrame(p)
	}
	r.senders = append(r.senders, s)
	return s
}

// Start begins the transfer (slow start from cwnd = 1).
func (s *TCPSender) Start() { s.trySend() }

// AckedBytes returns the acknowledged byte count.
func (s *TCPSender) AckedBytes() uint64 { return s.m.una }

// Cwnd returns the current congestion window in segments.
func (s *TCPSender) Cwnd() float64 { return s.m.cwnd }

// Ssthresh returns the slow-start threshold in segments.
func (s *TCPSender) Ssthresh() float64 { return s.m.ssthresh }

// InRecovery reports whether the sender is inside a fast-recovery
// episode (always false for Tahoe).
func (s *TCPSender) InRecovery() bool { return s.m.inRecovery }

// Variant returns the sender's configured loss-recovery variant.
func (s *TCPSender) Variant() TCPVariant { return s.cfg.Variant }

// RTOPending reports whether the retransmission timer is armed (used by
// the explore plane's state fingerprint).
func (s *TCPSender) RTOPending() bool { return s.timer.Pending() }

// VisitState folds the sender's forward-relevant state into f one word
// at a time (explore fingerprinting): the congestion machine, queued
// decisions, the RTO backoff, and the transfer cursor. Monotone
// counters are excluded.
func (s *TCPSender) VisitState(f func(uint64)) {
	m := s.m
	f(m.una)
	f(m.nxt)
	f(math.Float64bits(m.cwnd))
	f(math.Float64bits(m.ssthresh))
	f(uint64(m.dupacks))
	f(boolWord(m.inRecovery))
	f(m.recover)
	f(uint64(m.nsacked))
	for i := 0; i < m.nsacked; i++ {
		f(m.sacked[i].start)
		f(m.sacked[i].end)
	}
	f(m.highRtx)
	f(uint64(m.nrtx))
	for i := 0; i < m.nrtx; i++ {
		f(m.rtx[i])
	}
	f(boolWord(m.resetNxt))
	f(uint64(s.backoff))
	f(s.maxSent)
	f(boolWord(s.Done))
}

func (s *TCPSender) trySend() {
	if s.Done {
		return
	}
	limit := s.m.windowLimit()
	if s.cfg.TotalBytes > 0 && limit > s.cfg.TotalBytes {
		limit = s.cfg.TotalBytes
	}
	for s.m.nxt < limit {
		n := uint64(s.cfg.MSS)
		if s.m.nxt+n > limit {
			n = limit - s.m.nxt
		}
		if !s.sendSegment(s.m.nxt, int(n)) {
			break // pool pressure; the RTO recovers
		}
		s.m.nxt += n
	}
	s.armTimer()
}

func (s *TCPSender) sendSegment(seq uint64, n int) bool {
	spec := netstack.TCPSpec{
		SrcMAC: netstack.MAC{0xbb, 0, 0, 0, 0, byte(s.input + 1)},
		DstMAC: s.r.Ins[s.input].MAC(),
		SrcIP:  InputSourceIP(s.input), DstIP: RouterIP(s.input),
		SrcPort: 7000, DstPort: s.cfg.Port,
		Seq: uint32(seq), Flags: netstack.TCPAck | netstack.TCPPsh,
		Window: 0xffff, IPID: s.ipid,
		Payload: s.payload[:n],
	}
	s.ipid++
	p := s.r.Pool.Get(spec.FrameLen())
	if p == nil {
		return false
	}
	if _, err := netstack.BuildTCPFrame(p.Data, &spec); err != nil {
		panic(err)
	}
	p.ID = s.r.ownID()
	p.Born = s.r.Eng.Now()
	s.r.SourceWires[s.input].Transmit(p)
	s.SegmentsSent.Inc()
	if seq < s.maxSent {
		s.RtxSegments.Inc()
	}
	if seq+uint64(n) > s.maxSent {
		s.maxSent = seq + uint64(n)
	}
	return true
}

func (s *TCPSender) armTimer() {
	if s.timer.Pending() {
		return
	}
	if s.m.una >= s.m.nxt {
		return // nothing outstanding
	}
	s.timer = s.r.Eng.AfterCall(s.backoff, tcpRTO, s, nil)
}

// tcpRTO is the retransmission-timeout callback (sim.Callback shape);
// the sender cancels and re-arms it on every ACK, so the RTO churn of a
// long transfer must not allocate.
func tcpRTO(a, _ any) { a.(*TCPSender).onRTO() }

// onFrame filters reverse-wire traffic for our ACKs.
func (s *TCPSender) onFrame(p *netstack.Packet) {
	if len(p.Data) < netstack.EthHeaderLen+netstack.IPv4HeaderLen+netstack.TCPHeaderLen {
		return
	}
	if p.Data[netstack.EthHeaderLen+9] != netstack.ProtoTCP {
		return
	}
	var th netstack.TCPHeader
	seg := p.Data[netstack.EthHeaderLen+netstack.IPv4HeaderLen:]
	if err := th.Unmarshal(seg); err != nil {
		return
	}
	if th.DstPort != 7000 || th.Flags&netstack.TCPAck == 0 {
		return
	}
	var sacks []netstack.SACKBlock
	if s.cfg.Variant == VariantSACK && th.HeaderLen() > netstack.TCPHeaderLen {
		sacks = netstack.ParseSACKBlocks(seg[netstack.TCPHeaderLen:th.HeaderLen()], s.sackScratch[:0])
	}
	s.onAck(uint64(th.Ack), sacks)
}

func (s *TCPSender) onAck(ack uint64, sacks []netstack.SACKBlock) {
	if s.Done {
		return
	}
	prevUna := s.m.una
	s.m.onAck(ack, sacks)
	if s.m.una > prevUna {
		s.backoff = s.cfg.RTO
		s.r.Eng.Cancel(s.timer)
		s.timer = sim.Handle{}
		if s.cfg.TotalBytes > 0 && s.m.una >= s.cfg.TotalBytes {
			s.Done = true
			s.FinishedAt = s.r.Eng.Now()
			s.m.nrtx = 0
			s.m.resetNxt = false
			return
		}
	}
	s.execute()
}

// execute carries out the decisions the machine queued: loss-signal
// accounting, go-back-N resets, queued retransmissions, then any new
// data the window allows.
func (s *TCPSender) execute() {
	if events := s.m.lossEvents; events > s.lastLossEvents {
		s.Retransmits.Add(events - s.lastLossEvents)
		s.lastLossEvents = events
	}
	if s.m.resetNxt {
		s.m.resetNxt = false
		s.m.nxt = s.m.una
		s.r.Eng.Cancel(s.timer)
		s.timer = sim.Handle{}
	}
	for i := 0; i < s.m.nrtx; i++ {
		seq := s.m.rtx[i]
		n := uint64(s.cfg.MSS)
		if s.cfg.TotalBytes > 0 && seq+n > s.cfg.TotalBytes {
			n = s.cfg.TotalBytes - seq
		}
		if n > 0 {
			s.sendSegment(seq, int(n))
		}
	}
	s.m.nrtx = 0
	s.trySend()
}

func (s *TCPSender) onRTO() {
	s.timer = sim.Handle{}
	if s.Done || s.m.una >= s.m.nxt {
		return
	}
	s.Timeouts.Inc()
	s.backoff *= 2
	if s.backoff > 10*sim.Second {
		s.backoff = 10 * sim.Second
	}
	s.m.onRTO()
	s.execute()
}
