// Package prov defines the shared provenance vocabulary of the
// cycle-attribution layer: typed cost centers (where a CPU cycle went),
// typed packet lifecycle stages (where a packet was last seen), and
// typed drop reasons (which mechanism killed it). It is a leaf package
// with no dependencies so every layer — cpu, queue, nic, fault, trace,
// kernel — can speak the same enums, and trace output, metric columns,
// and drop counters can never disagree about what happened.
//
// The paper's causal claim (§3, §6.1) is that the CPU spends its cycles
// at interrupt level on packets that are later discarded. Measuring
// that requires two ledgers sharing one vocabulary: every cycle charged
// to a Center, and every packet's fate classified by Stage/DropReason.
package prov

// Center is a typed cost center: the reason the CPU was busy. Every
// simulated cycle the CPU consumes is charged to exactly one center
// (idle time is accounted separately by the CPU model), which is what
// lets the profiler state "X% of the CPU went to receive-interrupt work
// on packets that were later discarded".
type Center uint8

// Cost centers. CenterUnattributed is the zero value: work posted by a
// task with no declared center (only harness-internal tasks). The
// cycle-conservation ledger still covers it, so untagged work is
// visible rather than silently lost.
const (
	CenterUnattributed Center = iota
	// CenterRxIntr is device-IPL receive work: interrupt dispatch,
	// link-level processing, ring drain, ipintrq enqueue.
	CenterRxIntr
	// CenterTxIntr is device-IPL transmit-complete work: interrupt
	// dispatch and descriptor reclaim in the interrupt-driven kernels.
	CenterTxIntr
	// CenterIPInput is IP-layer input work: the softint forwarding path
	// in the unmodified kernel, the polled receive callbacks (processed
	// to completion) in the modified kernel.
	CenterIPInput
	// CenterScreend is the user-mode screening process: syscalls, rule
	// evaluation, and the send-side re-injection.
	CenterScreend
	// CenterOutput is output-side work outside interrupt reclaim: the
	// polled transmit-reclaim callbacks.
	CenterOutput
	// CenterUserProc is user-process work other than screend: the
	// compute-bound spinner, server applications, the monitor.
	CenterUserProc
	// CenterPollOverhead is the polling machinery itself: thread
	// wakeups and round-robin sweeps (§6.6.2's quota-amortization
	// overhead), as opposed to the packet work its callbacks do.
	CenterPollOverhead
	// CenterClock is hardclock and periodic housekeeping.
	CenterClock
	// CenterLock is time burned spinning on a contended kernel lock
	// (SMP only): cycles the CPU was busy but made no forward progress.
	// Charging spin separately is what lets the profiler show livelock
	// reappearing as lock contention when several cores hammer one
	// shared queue.
	CenterLock
	// NumCenters sizes per-center accounting arrays.
	NumCenters
)

var centerSlugs = [NumCenters]string{
	"unattributed", "rx-intr", "tx-intr", "ip-input", "screend",
	"output", "userproc", "poll-overhead", "clock", "lock",
}

// String returns the center's slug (used in metric column names and
// folded-stack frames).
func (c Center) String() string {
	if c < NumCenters {
		return centerSlugs[c]
	}
	return "center?"
}

// Stage is a typed packet-lifecycle stage: one per decision point the
// kernel used to describe with a free-form trace string. The String
// values preserve the legacy trace texts, so trace output stays
// greppable, while records themselves are a single byte.
type Stage uint8

// Lifecycle stages.
const (
	StageNone Stage = iota
	StageRxRingAccept
	StageRxRingDrop
	StageIPIntrQEnqueue
	StageIPIntrQDrop
	StageSoftIPInput
	StagePollRxLocal
	StagePollRxScreend
	StagePollRxForward
	StageScreendQDrop
	StageScreendAccept
	StageScreendReject
	StageForwarded
	StageOutQDrop
	StageTTLExpired
	StageBadChecksum
	StageTruncated
	StageForwardError
	StageTxDescriptor
	StageDelivered
	StageRevDelivered
	StageICMPQueued
	StageReplyQueued
	StageNoSocket
	StageSockBufDrop
	StageSockBufAccept
	StageEchoReply
	// StageTCPAccept: a TCP segment consumed by the in-kernel receiver
	// (in-order data, reorder-buffered data, or a bare control
	// segment) — its cycles were useful.
	StageTCPAccept
	// StageTCPDupData: a TCP data segment wholly below rcvNxt. Under a
	// reorder-only fault schedule every such segment is a spurious
	// retransmission, so this stage is the receiver-side ledger for the
	// Wu/Demar/Crawford waste: real cycles invested in bytes the
	// application already has.
	StageTCPDupData
	// StageTCPOOODrop: out-of-order TCP data discarded because the
	// receiver's reorder buffer was full; the sender must retransmit.
	StageTCPOOODrop
	NumStages
)

var stageTexts = [NumStages]string{
	"(none)",
	"rx-ring accept",
	"rx-ring DROP (full)",
	"device IPL work done, queued to ipintrq",
	"ipintrq DROP (full) — device work wasted",
	"softint ip_input",
	"poll rx → local delivery",
	"poll rx → ip_input → screend queue",
	"poll rx processed to completion",
	"screend queue DROP (full)",
	"screend accept",
	"screend REJECT",
	"forwarded to output ifqueue",
	"output ifqueue DROP",
	"TTL expired — ICMP time exceeded",
	"forward DROP: bad IPv4 checksum",
	"forward DROP: truncated frame",
	"forward ERROR",
	"handed to transmit descriptor",
	"delivered on stub Ethernet",
	"delivered on source Ethernet",
	"ICMP queued toward source",
	"reply queued",
	"local UDP: no socket — dropped",
	"socket buffer DROP (full)",
	"delivered to socket buffer",
	"ICMP echo reply",
	"delivered to TCP",
	"TCP duplicate data DROP (spurious retransmit)",
	"TCP reorder buffer DROP (full)",
}

// String returns the stage's legacy trace text.
func (s Stage) String() string {
	if s < NumStages {
		return stageTexts[s]
	}
	return "stage?"
}

// Delivers reports whether reaching s ends the packet's life usefully:
// handed to a sink on either Ethernet, to a socket buffer, or to the
// in-kernel TCP receiver. The profiler closes such a packet's record as
// useful work.
func (s Stage) Delivers() bool {
	switch s {
	case StageDelivered, StageRevDelivered, StageSockBufAccept, StageTCPAccept:
		return true
	}
	return false
}

// Slug returns a compact identifier for folded-stack frames and table
// rows (no spaces or punctuation beyond '-').
func (s Stage) Slug() string {
	if s < NumStages {
		return stageSlugs[s]
	}
	return "stage?"
}

var stageSlugs = [NumStages]string{
	"none", "rx-ring-accept", "rx-ring-drop", "ipintrq-enq", "ipintrq-drop",
	"softint-ip-input", "poll-rx-local", "poll-rx-screend", "poll-rx-forward",
	"screendq-drop", "screend-accept", "screend-reject", "forwarded",
	"outq-drop", "ttl-expired", "bad-checksum", "truncated", "forward-error",
	"tx-descriptor", "delivered", "rev-delivered", "icmp-queued",
	"reply-queued", "no-socket", "sockbuf-drop", "sockbuf-accept",
	"echo-reply", "tcp-accept", "tcp-dup-data", "tcp-ooo-drop",
}

// DropReason classifies why a packet was discarded. It is the single
// drop vocabulary shared by the queue package (each bounded queue
// carries its canonical reason), the kernel's drop counters, the fault
// plane, and provenance records: every counted drop maps to exactly one
// reason, and every reason maps to exactly one trace stage, so the
// trace stream, the metric columns, and the drop-provenance table are
// projections of the same classification.
type DropReason uint8

// Drop reasons.
const (
	ReasonNone DropReason = iota
	// ReasonRxRingFull: the NIC hardware dropped the frame at zero CPU
	// cost — the cheap drop the modified kernel steers overload toward.
	ReasonRxRingFull
	// ReasonIPIntrQFull: dropped at ipintrq after device-IPL work was
	// invested — the §6.3 "foolish" drop.
	ReasonIPIntrQFull
	// ReasonScreendQFull: dropped at the screend input queue.
	ReasonScreendQFull
	// ReasonOutQFull: dropped at an output ifqueue (drop-tail).
	ReasonOutQFull
	// ReasonSockBufFull: dropped at a socket receive buffer.
	ReasonSockBufFull
	// ReasonNoSocket: locally addressed, no listening socket.
	ReasonNoSocket
	// ReasonScreendReject: rejected by the screening filter.
	ReasonScreendReject
	// ReasonTTLExceeded: TTL expired in forwarding (ICMP generated).
	ReasonTTLExceeded
	// ReasonBadChecksum: IPv4 header checksum mismatch.
	ReasonBadChecksum
	// ReasonTruncated: frame shorter than its headers claim.
	ReasonTruncated
	// ReasonNoRoute: no route, no port, or other forwarding failure.
	ReasonNoRoute
	// ReasonMalformed: unparseable headers at local delivery.
	ReasonMalformed
	// ReasonFaultWireDrop: the fault plane dropped it on the wire.
	ReasonFaultWireDrop
	// ReasonFaultStall: lost at a fault-stalled input NIC.
	ReasonFaultStall
	// ReasonFaultReset: discarded from an rx ring by a fault reset.
	ReasonFaultReset
	// ReasonTCPDupData: a TCP data segment that duplicated bytes the
	// receiver already acknowledged. The receive-path cycles it consumed
	// are wasted work caused by a (possibly spurious) retransmission.
	ReasonTCPDupData
	// ReasonTCPOOOFull: out-of-order TCP data discarded because the
	// receiver's reorder buffer was full.
	ReasonTCPOOOFull
	// NumReasons sizes per-reason accounting arrays.
	NumReasons
)

var reasonSlugs = [NumReasons]string{
	"none", "rx-ring-full", "ipintrq-full", "screendq-full", "outq-full",
	"sockbuf-full", "no-socket", "screend-reject", "ttl-exceeded",
	"bad-checksum", "truncated", "no-route", "malformed",
	"fault-wire-drop", "fault-stall", "fault-reset",
	"tcp-dup-data", "tcp-ooo-full",
}

// String returns the reason's slug.
func (d DropReason) String() string {
	if d < NumReasons {
		return reasonSlugs[d]
	}
	return "reason?"
}

// Stage returns the trace stage a drop for this reason is reported
// under. This mapping is what ties the trace stream to the drop
// classification: a drop record's stage is derived from its reason, not
// chosen independently at the call site.
func (d DropReason) Stage() Stage {
	switch d {
	case ReasonRxRingFull:
		return StageRxRingDrop
	case ReasonIPIntrQFull:
		return StageIPIntrQDrop
	case ReasonScreendQFull:
		return StageScreendQDrop
	case ReasonOutQFull:
		return StageOutQDrop
	case ReasonSockBufFull:
		return StageSockBufDrop
	case ReasonNoSocket:
		return StageNoSocket
	case ReasonScreendReject:
		return StageScreendReject
	case ReasonTTLExceeded:
		return StageTTLExpired
	case ReasonBadChecksum:
		return StageBadChecksum
	case ReasonTruncated:
		return StageTruncated
	case ReasonNoRoute, ReasonMalformed:
		return StageForwardError
	case ReasonTCPDupData:
		return StageTCPDupData
	case ReasonTCPOOOFull:
		return StageTCPOOODrop
	default:
		return StageNone
	}
}

// Handle identifies a pooled provenance record, generation-checked like
// the sim package's event handles: a stale or zero handle makes every
// profiler operation a no-op instead of corrupting another packet's
// record. The zero Handle is always invalid (record generations start
// at 1), so packets that were never attached — router-originated
// frames, packets in profiler-disabled runs — are safely inert.
type Handle struct {
	Idx int32
	Gen uint32
}

// Zero reports whether h is the zero (never-attached) handle.
func (h Handle) Zero() bool { return h.Gen == 0 }
