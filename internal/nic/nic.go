package nic

import (
	"fmt"

	"livelock/internal/metrics"
	"livelock/internal/netstack"
	"livelock/internal/sim"
	"livelock/internal/stats"
)

// Config sizes a NIC.
type Config struct {
	// RxRing is the receive ring capacity (packets buffered by the
	// interface before the host drains them). The paper notes that
	// "modern network adapters can receive many back-to-back packets
	// without host intervention"; 32 matches a LANCE-era DMA ring.
	RxRing int
	// TxRing is the number of transmit descriptors. A descriptor is
	// consumed when a packet is handed to the hardware and only becomes
	// reusable after driver code reclaims it — the dependency behind
	// transmit starvation (§4.4, §6.6).
	TxRing int
	// RxQueues is the number of receive queues (0 and 1 both mean a
	// single queue, the classic NIC). With more than one queue the
	// device steers arriving flows RSS-style — a deterministic hash of
	// the IPv4 5-tuple picks the queue — and each queue has its own
	// RxRing-sized ring and its own MSI-like interrupt, so an SMP host
	// can give every queue to a different core.
	RxQueues int
	// Coalesce selects the interrupt-coalescing policy applied per
	// receive queue. The zero value (CoalesceImmediate) reproduces the
	// historical assert-on-first-arrival behavior byte-identically.
	Coalesce CoalesceConfig
}

// DefaultConfig matches the simulated testbed.
func DefaultConfig() Config { return Config{RxRing: 32, TxRing: 32} }

// NIC is a simulated Ethernet interface. The kernel side attaches
// interrupt callbacks and manipulates the rings; the wire side delivers
// and accepts frames. All methods must be called from engine events.
type NIC struct {
	name string
	eng  *sim.Engine
	mac  netstack.MAC
	cfg  Config
	wire *Wire // output wire; nil for receive-only interfaces

	// Receive side: one or more queues, each with its own ring and
	// interrupt latch. The interrupt-enable flag, stall state, and
	// fault hooks are device-wide.
	// The receive queues form the "rxipl" serialization domain: real
	// hardware serializes ring/latch access by running the driver at
	// device IPL, and the simulator's engine runs one work item at a
	// time. There is no FairLock to hold — the annotation documents
	// which methods belong to the device-serialized context.
	//lkvet:guards rxipl
	rxq []rxQueue
	//lkvet:guards rxipl
	rxq1       [1]rxQueue // backs rxq when there is a single queue
	rxEnabled  bool
	rxStalled  bool
	loseRxIntr func() bool
	coalesce   CoalesceConfig // resolved (defaults applied) at New

	// Transmit side. Descriptors: queued (awaiting wire) + inFlight +
	// completed (awaiting reclaim) <= cfg.TxRing. Ownership of a frame
	// passes to the wire when transmission finishes (the receiver gets
	// "the copy on the wire"); reclaiming afterwards frees only the
	// descriptor. txQueue[txHead:] are the queued frames: popping
	// advances txHead, and the slice rewinds when it empties (or is
	// compacted when an append would outgrow it), so one backing array,
	// sized by the queue's peak length, is reused instead of sliding
	// off it.
	txQueue     []*netstack.Packet
	txHead      int
	txCompleted int
	txInFlight  int
	txEnabled   bool
	txPending   bool
	onTxIntr    func()

	// Counters, named after the SNMP/netstat counters the paper samples.
	InPkts     *stats.Counter // frames accepted into the rx ring
	InDiscards *stats.Counter // frames dropped because the rx ring was full
	OutPkts    *stats.Counter // frames fully transmitted ("Opkts", the measured output rate)

	// Fault-injection counters (see internal/fault); both stay zero
	// unless a fault plane attaches to the interface.
	StallDrops  *stats.Counter // frames dropped while the receive side was stalled
	LostRxIntrs *stats.Counter // receive-interrupt assertions suppressed by fault injection

	// Coalescing counters; both stay zero under CoalesceImmediate.
	CoalesceCountFires *stats.Counter // assertions triggered by the packet-count threshold (or a full ring)
	CoalesceTimerFires *stats.Counter // assertions forced by the holdoff-timer threshold

	// OnRxAccept and OnRxDrop, if non-nil, observe ring admission for
	// tracing. OnRxDrop fires before the dropped frame is released.
	OnRxAccept func(*netstack.Packet)
	OnRxDrop   func(*netstack.Packet)
	// OnStallDrop, if non-nil, observes frames lost to a fault-stalled
	// receive side (before release), so the provenance layer can record
	// the loss under the fault-stall drop reason.
	OnStallDrop func(*netstack.Packet)
	// OnResetDrop, if non-nil, observes frames discarded from the rx
	// ring by ResetRx (before release). Unlike stall losses these frames
	// had been accepted into the ring, so the provenance layer must
	// finalize their records.
	OnResetDrop func(*netstack.Packet)
}

// rxQueue is one receive queue: a DMA ring plus an MSI-like interrupt
// latch. Single-queue NICs have exactly one.
type rxQueue struct {
	ring    []*netstack.Packet
	head    int
	count   int
	pending bool
	onIntr  func()

	// Coalescing state (unused under CoalesceImmediate): the armed
	// holdoff timer and the adaptive policy's effective count
	// threshold.
	coalesceTimer  sim.Timer
	coalesceThresh int
}

// New returns a NIC. wire may be nil if the interface never transmits.
// Boot-time only.
//
//lkvet:requires boot
func New(eng *sim.Engine, name string, mac netstack.MAC, cfg Config, wire *Wire) *NIC {
	if cfg.RxRing <= 0 || cfg.TxRing <= 0 {
		panic("nic: ring sizes must be positive")
	}
	queues := cfg.RxQueues
	if queues < 1 {
		queues = 1
	}
	n := &NIC{
		name: name, eng: eng, mac: mac, cfg: cfg, wire: wire,
		rxEnabled:          true,
		txEnabled:          true,
		coalesce:           cfg.Coalesce.withDefaults(),
		InPkts:             stats.NewCounter(name + ".ipkts"),
		InDiscards:         stats.NewCounter(name + ".idiscards"),
		OutPkts:            stats.NewCounter(name + ".opkts"),
		StallDrops:         stats.NewCounter(name + ".stalldrops"),
		LostRxIntrs:        stats.NewCounter(name + ".lostintrs"),
		CoalesceCountFires: stats.NewCounter(name + ".cofire.count"),
		CoalesceTimerFires: stats.NewCounter(name + ".cofire.timer"),
	}
	if queues == 1 {
		n.rxq = n.rxq1[:] // the struct-embedded queue: no extra allocation
	} else {
		n.rxq = make([]rxQueue, queues)
	}
	for i := range n.rxq {
		n.rxq[i].ring = make([]*netstack.Packet, cfg.RxRing)
		if n.coalesce.Policy != CoalesceImmediate {
			n.rxq[i].coalesceThresh = n.coalesce.CountThresh
			n.rxq[i].coalesceTimer.Init(nicCoalesceFire, n, &n.rxq[i])
		}
	}
	return n
}

// Name returns the interface name.
func (n *NIC) Name() string { return n.name }

// RegisterMetrics registers the interface's SNMP-style counters and
// ring-occupancy gauges under the NIC's name. rxring pegged at capacity
// means the hardware is dropping at zero CPU cost; txfree pegged at the
// ring size alongside a non-empty output queue is transmit starvation.
func (n *NIC) RegisterMetrics(reg *metrics.Registry) {
	reg.Counter(n.name+".ipkts", n.InPkts)
	reg.Counter(n.name+".idiscards", n.InDiscards)
	reg.Counter(n.name+".opkts", n.OutPkts)
	//lkvet:allow lockguard racy metrics-sampler snapshot of ring occupancy; a torn read skews one sample
	reg.Gauge(n.name+".rxring", func() float64 { return float64(n.RxLen()) })
	reg.Gauge(n.name+".txfree", func() float64 { return float64(n.TxDescriptorsFree()) })
	reg.Gauge(n.name+".txreclaim", func() float64 { return float64(n.txCompleted) })
	reg.Counter(n.name+".cofire.count", n.CoalesceCountFires)
	reg.Counter(n.name+".cofire.timer", n.CoalesceTimerFires)
}

// MAC returns the interface hardware address.
func (n *NIC) MAC() netstack.MAC { return n.mac }

// String identifies the NIC.
func (n *NIC) String() string { return fmt.Sprintf("nic(%s)", n.name) }

// --- receive side ---

// RxQueues returns the number of receive queues.
//
//lkvet:requires rxipl
func (n *NIC) RxQueues() int { return len(n.rxq) }

// SetRxInterrupt installs the receive-interrupt callback (the "interrupt
// wire" into the CPU) on every queue. The callback is invoked at most
// once per assertion per queue; the driver must call RxIntrDone (or
// RxQueueIntrDone) when it has drained the ring so a later arrival can
// assert again.
//
//lkvet:requires boot
func (n *NIC) SetRxInterrupt(fn func()) {
	for q := range n.rxq {
		n.rxq[q].onIntr = fn
	}
}

// SetRxQueueInterrupt installs the MSI-like interrupt callback for one
// receive queue — how an SMP host steers each queue's interrupts to its
// own core.
//
//lkvet:requires boot
func (n *NIC) SetRxQueueInterrupt(q int, fn func()) { n.rxq[q].onIntr = fn }

// DeliverFrame implements Receiver: a frame has arrived from the wire.
// Multi-queue NICs steer it by the RSS flow hash; if the target ring is
// full the frame is dropped by the hardware at zero CPU cost — the
// cheapest possible place to drop, as §6.4 emphasizes.
//
//lkvet:requires rxipl
func (n *NIC) DeliverFrame(p *netstack.Packet) {
	if n.rxStalled {
		// A fault-stalled device loses arriving frames silently; the
		// drop is as cheap as a ring-full one but counted separately so
		// conservation accounting can attribute it to the fault plane.
		n.StallDrops.Inc()
		if n.OnStallDrop != nil {
			n.OnStallDrop(p)
		}
		p.Release()
		return
	}
	rq := &n.rxq[n.rssQueue(p.Data)]
	if rq.count == n.cfg.RxRing {
		n.InDiscards.Inc()
		if n.OnRxDrop != nil {
			n.OnRxDrop(p)
		}
		p.Release()
		return
	}
	p.EnqueuedNIC = n.eng.Now()
	rq.ring[(rq.head+rq.count)%n.cfg.RxRing] = p
	rq.count++
	n.InPkts.Inc()
	if n.OnRxAccept != nil {
		n.OnRxAccept(p)
	}
	n.maybeRaiseRx(rq)
}

// rssQueue picks the receive queue for a frame: FNV-1a over the IPv4
// 5-tuple (src/dst address, protocol, and — for unfragmented TCP/UDP —
// the port pair), mod the queue count. Fragments hash without ports so
// every fragment of a datagram lands on one queue; non-IPv4 and
// truncated frames go to queue 0. The hash is a pure function of the
// bytes, so steering is deterministic.
//
//lkvet:requires rxipl
func (n *NIC) rssQueue(frame []byte) int {
	if len(n.rxq) == 1 {
		return 0
	}
	const ipOff = netstack.EthHeaderLen
	if len(frame) < ipOff+netstack.IPv4HeaderLen ||
		netstack.EtherType(uint16(frame[12])<<8|uint16(frame[13])) != netstack.EtherTypeIPv4 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range frame[ipOff+12 : ipOff+20] { // src + dst address
		h = (h ^ uint64(b)) * prime64
	}
	proto := frame[ipOff+9]
	h = (h ^ uint64(proto)) * prime64
	fragOff := uint16(frame[ipOff+6])<<8 | uint16(frame[ipOff+7])
	unfragmented := fragOff&0x3fff == 0 // no offset, no more-fragments
	if unfragmented && (proto == 6 || proto == 17) && len(frame) >= ipOff+netstack.IPv4HeaderLen+4 {
		for _, b := range frame[ipOff+netstack.IPv4HeaderLen : ipOff+netstack.IPv4HeaderLen+4] {
			h = (h ^ uint64(b)) * prime64
		}
	}
	return int(h % uint64(len(n.rxq)))
}

func (n *NIC) maybeRaiseRx(rq *rxQueue) {
	if n.coalesce.Policy != CoalesceImmediate {
		n.coalesceEval(rq)
		return
	}
	if n.rxEnabled && !rq.pending && rq.count > 0 && rq.onIntr != nil {
		if n.loseRxIntr != nil && n.loseRxIntr() {
			// The assertion is lost but the latch stays clear, so the
			// next arrival (or interrupt enable) retries; a lost
			// interrupt delays service, it does not wedge the device.
			n.LostRxIntrs.Inc()
			return
		}
		rq.pending = true
		rq.onIntr()
	}
}

// SetRxStalled sets the fault-injection receive stall flag: while
// stalled the device loses every arriving frame (counted in
// StallDrops). Frames already in the ring are untouched; see ResetRx.
func (n *NIC) SetRxStalled(on bool) { n.rxStalled = on }

// RxStalled reports whether the receive side is fault-stalled.
func (n *NIC) RxStalled() bool { return n.rxStalled }

// SetRxIntrLoss installs a fault hook consulted each time the NIC is
// about to assert a receive interrupt; returning true suppresses the
// assertion (counted in LostRxIntrs).
func (n *NIC) SetRxIntrLoss(fn func() bool) { n.loseRxIntr = fn }

// ResetRx discards every frame in the receive ring, as a device reset
// would, and returns the number discarded. The interrupt latch is left
// alone: a handler already dispatched simply finds the ring empty.
// A device action: runs in the rxipl serialization domain.
//
//lkvet:requires rxipl
func (n *NIC) ResetRx() int {
	count := 0
	for p := n.TakeRx(); p != nil; p = n.TakeRx() {
		if n.OnResetDrop != nil {
			n.OnResetDrop(p)
		}
		p.Release()
		count++
	}
	return count
}

// RxPending reports whether any queue's receive interrupt is asserted.
//
//lkvet:requires rxipl
func (n *NIC) RxPending() bool {
	for q := range n.rxq {
		if n.rxq[q].pending {
			return true
		}
	}
	return false
}

// RxQueuePending reports whether queue q's interrupt is asserted.
//
//lkvet:requires rxipl
func (n *NIC) RxQueuePending(q int) bool { return n.rxq[q].pending }

// RxLen returns the total receive-ring occupancy across queues.
//
//lkvet:requires rxipl
func (n *NIC) RxLen() int {
	total := 0
	for q := range n.rxq {
		total += n.rxq[q].count
	}
	return total
}

// RxQueueLen returns queue q's ring occupancy.
//
//lkvet:requires rxipl
func (n *NIC) RxQueueLen(q int) int { return n.rxq[q].count }

// TakeRx removes and returns the oldest received frame from the first
// non-empty queue (queues scanned in index order), or nil if all rings
// are empty.
//
//lkvet:requires rxipl
func (n *NIC) TakeRx() *netstack.Packet {
	for q := range n.rxq {
		if p := n.TakeRxQueue(q); p != nil {
			return p
		}
	}
	return nil
}

// TakeRxQueue removes and returns the oldest received frame from queue
// q, or nil if that ring is empty.
//
//lkvet:requires rxipl
func (n *NIC) TakeRxQueue(q int) *netstack.Packet {
	rq := &n.rxq[q]
	if rq.count == 0 {
		return nil
	}
	p := rq.ring[rq.head]
	rq.ring[rq.head] = nil
	rq.head = (rq.head + 1) % n.cfg.RxRing
	rq.count--
	if rq.count == 0 {
		// The driver drained the holdoff batch before the timer fired;
		// an empty ring has nothing to signal.
		n.eng.Disarm(&rq.coalesceTimer)
	}
	return p
}

// RxIntrDone tells the NIC the driver has finished servicing the
// current receive interrupt on every queue. If frames remain (or
// arrived meanwhile) and interrupts are enabled, a new interrupt is
// asserted immediately.
//
//lkvet:requires rxipl
func (n *NIC) RxIntrDone() {
	for q := range n.rxq {
		n.RxQueueIntrDone(q)
	}
}

// RxQueueIntrDone acknowledges queue q's interrupt, re-asserting at
// once if its ring is non-empty.
//
//lkvet:requires rxipl
func (n *NIC) RxQueueIntrDone(q int) {
	rq := &n.rxq[q]
	rq.pending = false
	n.maybeRaiseRx(rq)
}

// EnableRxInterrupt sets the device-wide receive interrupt-enable flag.
// Enabling with frames pending asserts an interrupt at once — the
// modified kernel's drivers re-enable through this and immediately hear
// about any backlog (§6.4).
//
//lkvet:requires rxipl
func (n *NIC) EnableRxInterrupt(on bool) {
	n.rxEnabled = on
	if on {
		for q := range n.rxq {
			n.maybeRaiseRx(&n.rxq[q])
		}
	}
}

// RxInterruptEnabled reports the receive interrupt-enable flag.
func (n *NIC) RxInterruptEnabled() bool { return n.rxEnabled }

// --- transmit side ---

// SetTxInterrupt installs the transmit-complete interrupt callback.
func (n *NIC) SetTxInterrupt(fn func()) { n.onTxIntr = fn }

// TxDescriptorsFree returns the number of unused transmit descriptors.
func (n *NIC) TxDescriptorsFree() int {
	return n.cfg.TxRing - n.TxQueuedLen() - n.txInFlight - n.txCompleted
}

// StartTx hands a frame to the hardware for transmission. It returns
// false (without consuming the frame) if no descriptor is free; the
// caller decides whether to queue or drop.
func (n *NIC) StartTx(p *netstack.Packet) bool {
	if n.TxDescriptorsFree() == 0 {
		return false
	}
	if len(n.txQueue) == cap(n.txQueue) && n.txHead > 0 {
		k := copy(n.txQueue, n.txQueue[n.txHead:])
		clear(n.txQueue[k:])
		n.txQueue = n.txQueue[:k]
		n.txHead = 0
	}
	n.txQueue = append(n.txQueue, p)
	n.kickTx()
	return true
}

func (n *NIC) kickTx() {
	if n.txInFlight > 0 || n.TxQueuedLen() == 0 {
		return
	}
	if n.wire == nil {
		panic("nic: transmit on interface without a wire")
	}
	p := n.txQueue[n.txHead]
	n.txQueue[n.txHead] = nil
	n.txHead++
	if n.txHead == len(n.txQueue) {
		n.txQueue = n.txQueue[:0]
		n.txHead = 0
	}
	n.txInFlight++
	done := n.wire.Transmit(p)
	// Closure-free: one completion event per transmitted frame.
	n.eng.AtCall(done, nicTxDone, n, nil)
}

// nicTxDone is the transmit-completion callback (sim.Callback shape).
func nicTxDone(a, _ any) { a.(*NIC).txDone() }

func (n *NIC) txDone() {
	n.txInFlight--
	n.txCompleted++
	n.OutPkts.Inc()
	n.maybeRaiseTx()
	n.kickTx()
}

func (n *NIC) maybeRaiseTx() {
	if n.txEnabled && !n.txPending && n.txCompleted > 0 && n.onTxIntr != nil {
		n.txPending = true
		n.onTxIntr()
	}
}

// TxCompletedLen returns how many transmit descriptors await reclaim.
func (n *NIC) TxCompletedLen() int { return n.txCompleted }

// TxQueuedLen returns how many frames occupy descriptors awaiting their
// turn on the wire.
func (n *NIC) TxQueuedLen() int { return len(n.txQueue) - n.txHead }

// TxInFlight returns how many frames are currently being transmitted.
func (n *NIC) TxInFlight() int { return n.txInFlight }

// ReclaimTx frees one completed transmit descriptor, reporting false if
// none awaits reclaim. The frame itself was consumed by the wire when
// transmission finished.
func (n *NIC) ReclaimTx() bool {
	if n.txCompleted == 0 {
		return false
	}
	n.txCompleted--
	return true
}

// TxIntrDone tells the NIC the driver finished servicing the transmit
// interrupt; a new one is asserted if completions remain.
func (n *NIC) TxIntrDone() {
	n.txPending = false
	n.maybeRaiseTx()
}

// EnableTxInterrupt sets the transmit interrupt-enable flag.
func (n *NIC) EnableTxInterrupt(on bool) {
	n.txEnabled = on
	if on {
		n.maybeRaiseTx()
	}
}

// TxPending reports whether a transmit interrupt is asserted.
func (n *NIC) TxPending() bool { return n.txPending }
