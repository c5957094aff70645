package kernel

import (
	"fmt"
	"io"

	"livelock/internal/core"
	"livelock/internal/cpu"
	"livelock/internal/fault"
	"livelock/internal/metrics"
	"livelock/internal/netstack"
	"livelock/internal/nic"
	"livelock/internal/prof"
	"livelock/internal/prov"
	"livelock/internal/queue"
	"livelock/internal/sim"
	"livelock/internal/stats"
	"livelock/internal/workload"
)

// Topology constants: the router joins net0 (10.0.0.0/24, the source
// Ethernet) to net1 (10.0.1.0/24, the stub Ethernet where the phantom
// destination "lives"), exactly the two-Ethernet testbed of §6.1.
// Additional input interfaces (fairness experiments) get 10.0.{i+1}.0/24.
// The router owns the .1 address on every attached network.
var (
	// PhantomDest is the non-existent destination host; a phantom ARP
	// entry makes the router forward to it.
	PhantomDest = netstack.AddrFrom(10, 0, 1, 9)
	// SourceIP is the packet generator's address (first input net).
	SourceIP = netstack.AddrFrom(10, 0, 0, 2)
)

// OutIfIndex is the routing-table interface index of the output (stub)
// Ethernet; input interfaces use their ordinal (0, 1, ...).
const OutIfIndex = 100

// inNetPrefix returns the /24 prefix for input network i.
func inNetPrefix(i int) netstack.Addr {
	if i == 0 {
		return netstack.AddrFrom(10, 0, 0, 0)
	}
	return netstack.AddrFrom(10, 0, byte(1+i), 0)
}

// InputSourceIP returns the generator address on input network i.
func InputSourceIP(i int) netstack.Addr {
	p := inNetPrefix(i)
	p[3] = 2
	return p
}

// RouterIP returns the router's own address on input network i.
func RouterIP(i int) netstack.Addr {
	p := inNetPrefix(i)
	p[3] = 1
	return p
}

// netPort is one attached interface: the NIC, its output ifqueue, its
// address on that network, and the transmit-reclaim context — the
// device-IPL task in interrupt-driven modes, the owning poller in the
// polled kernel.
type netPort struct {
	idx int
	nic *nic.NIC
	//lkvet:guards netLock
	outq     *queue.Queue
	localIP  netstack.Addr
	txTask   *cpu.Task
	txPoller *core.Poller
	ld       *cpu.Lockdep // the router's checker, nil unless enabled
}

// enqueueOut admits a packet to the port's drop-tail output queue.
//
//lkvet:requires netLock
func (p *netPort) enqueueOut(pkt *netstack.Packet) bool {
	p.ld.Check(p.outq)
	return p.outq.Enqueue(pkt)
}

// dequeueOut removes the next packet for transmission.
//
//lkvet:requires netLock
func (p *netPort) dequeueOut() *netstack.Packet {
	p.ld.Check(p.outq)
	return p.outq.Dequeue()
}

// Router is the simulated router-under-test plus its instrumentation.
type Router struct {
	Eng *sim.Engine
	RNG *sim.RNG
	// Sys is the processor complex; CPU aliases Sys.CPU(0), the boot
	// processor, where every single-threaded kernel service lives.
	Sys  *cpu.System
	CPU  *cpu.CPU
	Pool *netstack.Pool
	Cfg  Config

	// Ins are the input interfaces; SourceWires[i] is the Ethernet a
	// generator transmits onto to reach Ins[i].
	Ins         []*nic.NIC
	SourceWires []*nic.Wire
	// Out is the output interface and Sink the analyzer on the stub
	// Ethernet.
	Out  *nic.NIC
	Sink *nic.Sink
	// RevSinks observe frames the router transmits back onto the input
	// Ethernets (ICMP errors, application replies), one per input.
	RevSinks []*nic.Sink

	// fwd holds the shared forwarding tables (routes, ARP, flow
	// cache): on SMP every mutation and authoritative lookup happens
	// in the netLock'd output stage of ip_input.
	//lkvet:guards netLock
	fwd        *netstack.Forwarder
	ports      []*netPort
	portByIdx  map[int]*netPort
	localAddrs map[netstack.Addr]*netPort
	sockets    map[uint16]*Socket
	tcpPorts   map[uint16]*TCPReceiver

	// Queues (presence depends on mode/screend).
	//lkvet:guards ipqLock
	ipintrq *queue.Queue
	//lkvet:guards netLock
	screendq *queue.Queue

	// SMP lock discipline (nil at CPUs == 1): ipqLock serializes ipintrq
	// (the unmodified kernel's device→softint handoff); netLock
	// serializes everything downstream — output ifqueues, transmit
	// start, and the screend queue. Lock hold times are carved out of
	// the existing per-packet costs, so contention (spin) is the only
	// time an SMP run adds.
	ipqLock *cpu.FairLock
	netLock *cpu.FairLock

	// ld is the runtime lock-discipline checker (DESIGN.md §13):
	// non-nil only on SMP with Config.Lockdep or LIVELOCK_LOCKDEP=1,
	// where every touch of the guarded queues and tables above asserts
	// the touching context holds the declared lock. Nil is free.
	ld *cpu.Lockdep

	// Sub-systems.
	unmod   *unmodifiedPath
	polled  *polledPath
	screend *screendProc
	user    *userProc
	monitor *Monitor

	clockTask *cpu.Task
	houseTask *cpu.Task
	// tick is onTick bound once: the hardclock posts it every tick.
	tick      func()
	ticks     uint64
	nextOwnID uint64

	// FwdErrors counts packets dropped by the forwarding code itself
	// (no route, non-IP ethertype, malformed headers other than the two
	// classified below); TTL expiries are counted separately because
	// they generate ICMP.
	FwdErrors *stats.Counter
	// BadChecksumDrops counts frames the forwarder rejected for an IPv4
	// header checksum mismatch — the terminal bucket for the fault
	// plane's bit corruption when it lands in the IP header.
	BadChecksumDrops *stats.Counter
	// TruncatedDrops counts frames rejected as truncated (buffer
	// shorter than the headers claim) — the terminal bucket for the
	// fault plane's truncation injector.
	TruncatedDrops *stats.Counter
	// EchoConsumed counts ICMP echo-request frames consumed by in-place
	// reply conversion; the reply is counted in RouterOriginated, so
	// the request needs its own terminal bucket for conservation.
	EchoConsumed *stats.Counter
	// TTLDrops counts forwarded packets dropped for TTL expiry.
	TTLDrops *stats.Counter
	// ICMPSent counts router-originated ICMP messages (time-exceeded,
	// echo replies).
	ICMPSent *stats.Counter
	// ICMPFailures counts ICMP messages not sent (no route/ARP/buffer).
	ICMPFailures *stats.Counter
	// NoSocketDrops counts locally-addressed UDP packets with no
	// listening socket.
	NoSocketDrops *stats.Counter
	// RouterOriginated counts frames the router itself generated (for
	// conservation accounting).
	RouterOriginated *stats.Counter

	fault *fault.Plane
	prof  *prof.Profile

	// The attached sources, whose sent counts Offered sums.
	gens    []*workload.Generator
	senders []*TCPSender
	clients []*Client
}

// NewRouter builds and starts a router. The clock begins ticking
// immediately; attach generators and run the engine to drive traffic.
// It panics with cfg.Validate's error if cfg describes no router.
// Runs before the engine: fully serialized.
//
//lkvet:requires boot
func NewRouter(eng *sim.Engine, cfg Config) *Router {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	sys := cpu.NewSystem(eng, cfg.CPUs)
	r := &Router{
		Eng:              eng,
		RNG:              sim.NewRNG(cfg.Seed),
		Sys:              sys,
		CPU:              sys.CPU(0),
		Pool:             netstack.NewPool(cfg.PoolBuffers, netstack.EthMaxFrame),
		Cfg:              cfg,
		portByIdx:        make(map[int]*netPort),
		localAddrs:       make(map[netstack.Addr]*netPort),
		sockets:          make(map[uint16]*Socket),
		tcpPorts:         make(map[uint16]*TCPReceiver),
		FwdErrors:        stats.NewCounter("fwd.errors"),
		BadChecksumDrops: stats.NewCounter("fwd.badchecksum"),
		TruncatedDrops:   stats.NewCounter("fwd.truncated"),
		EchoConsumed:     stats.NewCounter("icmp.echoconsumed"),
		TTLDrops:         stats.NewCounter("fwd.ttl"),
		ICMPSent:         stats.NewCounter("icmp.sent"),
		ICMPFailures:     stats.NewCounter("icmp.failures"),
		NoSocketDrops:    stats.NewCounter("sock.nosocket"),
		RouterOriginated: stats.NewCounter("router.originated"),
		prof:             cfg.Profile,
	}
	clock := func() sim.Time { return eng.Now() }
	if r.smp() {
		r.ipqLock = cpu.NewFairLock("ipintrq")
		r.netLock = cpu.NewFairLock("net")
		if cfg.Lockdep || envLockdep {
			r.ld = cpu.NewLockdep()
			sys.SetLockdep(r.ld)
		}
	}

	// Output interface toward the stub Ethernet.
	r.Sink = nic.NewSink(eng, "stub")
	sinkWire := nic.NewWire(eng, r.Sink, cfg.LinkBitRate, 0)
	outMAC := netstack.MAC{0xaa, 0, 0, 0, 1, 0}
	r.Out = nic.New(eng, "out0", outMAC, cfg.NIC, sinkWire)
	outPort := &netPort{
		idx:     OutIfIndex,
		nic:     r.Out,
		localIP: netstack.AddrFrom(10, 0, 1, 1),
	}
	r.initOutQueue(outPort, "ifq.out0", clock)
	r.addPort(outPort)

	// Input interfaces, each with a reverse-direction analyzer so
	// router-originated traffic (ICMP, application replies) is
	// observable.
	for i := 0; i < cfg.InputNICs; i++ {
		mac := netstack.MAC{0xaa, 0, 0, 0, 0, byte(i + 1)}
		rev := nic.NewSink(eng, fmt.Sprintf("rev-in%d", i))
		revWire := nic.NewWire(eng, rev, cfg.LinkBitRate, 0)
		in := nic.New(eng, fmt.Sprintf("in%d", i), mac, cfg.NIC, revWire)
		r.Ins = append(r.Ins, in)
		r.RevSinks = append(r.RevSinks, rev)
		r.SourceWires = append(r.SourceWires, nic.NewWire(eng, in, cfg.LinkBitRate, 0))
		port := &netPort{
			idx:     i,
			nic:     in,
			localIP: RouterIP(i),
		}
		r.initOutQueue(port, fmt.Sprintf("ifq.in%d", i), clock)
		r.addPort(port)
	}

	// Forwarding state: direct routes for every attached network, a
	// phantom ARP entry for the non-existent destination (§6.1), and
	// real ARP entries for the source hosts (they would be learned from
	// their traffic).
	routes := netstack.NewRoutingTable()
	arp := netstack.NewARPTable()
	mustInsert(routes, netstack.Route{Prefix: netstack.AddrFrom(10, 0, 1, 0), Bits: 24, IfIndex: OutIfIndex})
	for i := range r.Ins {
		mustInsert(routes, netstack.Route{Prefix: inNetPrefix(i), Bits: 24, IfIndex: i})
		arp.Insert(InputSourceIP(i), netstack.MAC{0xbb, 0, 0, 0, 0, byte(i + 1)})
	}
	arp.InsertPhantom(PhantomDest)
	r.fwd = netstack.NewForwarder(routes, arp)
	if cfg.FastPath {
		r.fwd.Cache = netstack.NewFlowCache(256)
	}
	for _, p := range r.ports {
		r.fwd.IfMAC[p.idx] = p.nic.MAC()
	}

	if cfg.Screend {
		r.screendq = queue.New("screendq", cfg.ScreendQLimit, clock)
		r.screendq.Reason = prov.ReasonScreendQFull
	}

	// The kernel architecture.
	if cfg.Mode == ModePolled {
		r.polled = newPolledPath(r)
	} else {
		r.ipintrq = queue.New("ipintrq", cfg.IPIntrQLimit, clock)
		r.ipintrq.Reason = prov.ReasonIPIntrQFull
		r.unmod = newUnmodifiedPath(r)
	}

	if cfg.Screend {
		r.screend = newScreendProc(r)
	}
	if cfg.UserProcess {
		r.user = newUserProc(r)
	}

	// Register every lock-guarded object with the runtime checker. The
	// set mirrors the static //lkvet:guards annotations, so the dynamic
	// and static layers enforce the same discipline.
	if r.ld != nil {
		r.ld.Guard(r.fwd, r.netLock, "forwarding tables")
		for _, p := range r.ports {
			r.ld.Guard(p.outq, r.netLock, p.nic.Name()+" outq")
		}
		if r.ipintrq != nil {
			r.ld.Guard(r.ipintrq, r.ipqLock, "ipintrq")
		}
		if r.screendq != nil {
			r.ld.Guard(r.screendq, r.netLock, "screendq")
		}
	}

	// The fault plane attaches to the hostile side of the testbed: the
	// source wires and input NICs (the stub Ethernet and reverse paths
	// stay clean so the analyzer observes the router, not the plane).
	if cfg.Fault.Enabled() {
		r.fault = fault.NewPlane(eng, r.Pool, cfg.Fault, cfg.Seed)
		for i, w := range r.SourceWires {
			r.fault.AttachWire(w)
			r.fault.AttachNIC(r.Ins[i])
		}
		var hang, resume func()
		if r.screend != nil {
			hang, resume = r.HangScreend, r.ResumeScreend
		}
		r.fault.Start(hang, resume)
	}

	// Clock and housekeeping.
	r.clockTask = r.CPU.NewTask("hardclock", cpu.IPLClock, 0, cpu.ClassClock)
	r.clockTask.SetCenter(prov.CenterClock)
	r.houseTask = r.CPU.NewTask("housekeeping", cpu.IPLThread, 50, cpu.ClassKernel)
	r.houseTask.SetCenter(prov.CenterClock)
	r.tick = r.onTick
	r.scheduleTick()

	if cfg.Trace != nil || r.prof != nil {
		r.wireObservers()
	}
	if cfg.Metrics != nil {
		r.registerMetrics(cfg.Metrics)
	}
	return r
}

// registerMetrics registers the router's full instrument schema, each
// column exactly once. The schema is identical across kernel modes for
// a given topology: a subsystem absent from a configuration passes a
// nil source, which the registry renders as a constant-zero column, so
// timelines from different kernels line up column-for-column.
// Registration order — and therefore column order — follows this
// function top to bottom. Boot-time only.
//
//lkvet:requires boot
func (r *Router) registerMetrics(reg *metrics.Registry) {
	must := metrics.MustRegister
	must(metrics.RegisterCPU(reg, r.CPU))
	// SMP-only columns append after the boot CPU's so uniprocessor
	// timelines keep their historical schema byte-for-byte.
	if r.smp() {
		for i := 1; i < r.Sys.N(); i++ {
			must(metrics.RegisterCPUPrefixed(reg, r.Sys.CPU(i), fmt.Sprintf("cpu%d.", i)))
		}
		for _, l := range []*cpu.FairLock{r.ipqLock, r.netLock} {
			l := l
			must(reg.CounterFunc("lock."+l.Name()+".acquisitions", l.Acquisitions))
			must(reg.CounterFunc("lock."+l.Name()+".contended", l.Contended))
			must(reg.Utilization("lock."+l.Name()+".spin.util", l.SpinTime))
		}
	}
	must(r.Sink.RegisterMetrics(reg))
	for _, in := range r.Ins {
		must(in.RegisterMetrics(reg))
	}
	must(r.Out.RegisterMetrics(reg))
	registerQueueMetrics(reg, r.ipintrq, "ipintrq")
	registerQueueMetrics(reg, r.portByIdx[OutIfIndex].outq, "ifq.out0")
	registerQueueMetrics(reg, r.screendq, "screendq")
	must(reg.Counter("fwd.errors", r.FwdErrors))
	must(reg.Counter("fwd.badchecksum", r.BadChecksumDrops))
	must(reg.Counter("fwd.truncated", r.TruncatedDrops))
	must(reg.Counter("fwd.ttl", r.TTLDrops))
	must(reg.Counter("icmp.sent", r.ICMPSent))
	must(reg.Counter("sock.nosocket", r.NoSocketDrops))

	// The interrupt-driven path's softint backlog, then the polled
	// path's pollers, input gate, feedback and cycle limiter.
	var netisrPending func() float64
	var pollers []*core.Poller
	var fbInhibits, fbTimeouts, clInhibits *stats.Counter
	if u := r.unmod; u != nil {
		netisrPending = func() float64 {
			var pend int
			for i := range u.netisrs {
				pend += u.netisrs[i].task.Pending()
			}
			return float64(pend)
		}
	} else {
		pollers = r.polled.pollers
		if fb := r.polled.feedback; fb != nil {
			fbInhibits, fbTimeouts = fb.Inhibits, fb.Timeouts
		}
		if l := r.polled.limiter; l != nil {
			clInhibits = l.Inhibits
		}
	}
	must(reg.Gauge("netisr.pending", netisrPending))
	// The per-interval poller.rx delta is quota usage.
	pollerSum := func(pick func(*core.Poller) *stats.Counter) func() uint64 {
		if pollers == nil {
			return nil
		}
		return func() uint64 {
			var total uint64
			for _, pol := range pollers {
				total += pick(pol).Value()
			}
			return total
		}
	}
	must(reg.CounterFunc("poller.wakeups", pollerSum(func(p *core.Poller) *stats.Counter { return p.Wakeups })))
	must(reg.CounterFunc("poller.rounds", pollerSum(func(p *core.Poller) *stats.Counter { return p.Rounds })))
	must(reg.CounterFunc("poller.rx", pollerSum(func(p *core.Poller) *stats.Counter { return p.RxSteps })))
	must(reg.CounterFunc("poller.tx", pollerSum(func(p *core.Poller) *stats.Counter { return p.TxSteps })))
	must(reg.Gauge("gate.open", func() float64 {
		if r.InputInhibited() {
			return 0
		}
		return 1
	}))
	must(reg.Counter("feedback.inhibits", fbInhibits))
	must(reg.Counter("feedback.timeouts", fbTimeouts))
	must(reg.Counter("cyclelimit.inhibits", clInhibits))

	r.registerScreendMetrics(reg)
	r.registerMonitorMetrics(reg)
	must(r.fault.RegisterMetrics(reg))

	// The cycle-attribution profiler's columns cost nothing to sample
	// when no profile is attached.
	var useful, wasted func() sim.Duration
	var wastedFrac, livelock func() float64
	var diagnoses func() uint64
	if pr := r.prof; pr != nil {
		useful, wasted, wastedFrac, diagnoses = pr.UsefulCycles, pr.WastedCycles, pr.WastedFrac, pr.DiagnosisTotal
		livelock = func() float64 {
			if pr.Livelocked() {
				return 1
			}
			return 0
		}
	}
	must(reg.Utilization("prof.useful.util", useful))
	must(reg.Utilization("prof.wasted.util", wasted))
	must(reg.Gauge("prof.wasted.frac", wastedFrac))
	must(reg.Gauge("prof.livelock", livelock))
	must(reg.CounterFunc("prof.diagnoses", diagnoses))
}

// Fault returns the fault-injection plane, or nil when Config.Fault is
// disabled.
func (r *Router) Fault() *fault.Plane { return r.fault }

// registerQueueMetrics registers a queue's point-in-time depth gauge and
// its drop and enqueue counters under name; a queue absent from this
// configuration (nil: ipintrq in the polled kernel, screendq without
// screend) registers the same columns reading zero. The depth gauge is
// the timeline's livelock tell — a queue pegged at capacity for whole
// sample intervals means every marginal packet is dropped after
// upstream work was invested in it.
func registerQueueMetrics(reg *metrics.Registry, q *queue.Queue, name string) {
	var depth func() float64
	var drops, enq *stats.Counter
	if q != nil {
		depth = func() float64 { return float64(q.Len()) }
		drops, enq = q.Drops, q.Enqueued
	}
	metrics.MustRegister(reg.Gauge(name+".depth", depth))
	metrics.MustRegister(reg.Counter(name+".drops", drops))
	metrics.MustRegister(reg.Counter(name+".enq", enq))
}

func (r *Router) addPort(p *netPort) {
	p.ld = r.ld
	r.ports = append(r.ports, p)
	r.portByIdx[p.idx] = p
	r.localAddrs[p.localIP] = p
}

// initOutQueue builds the port's drop-tail output ifqueue. Boot-time
// only.
//
//lkvet:requires boot
func (r *Router) initOutQueue(p *netPort, name string, clock func() sim.Time) {
	p.outq = queue.New(name, r.Cfg.OutQueueLimit, clock)
	p.outq.Reason = prov.ReasonOutQFull
}

func mustInsert(t *netstack.RoutingTable, route netstack.Route) {
	if err := t.Insert(route); err != nil {
		panic(err)
	}
}

// ownID mints a packet id for router-originated frames, disjoint from
// generator ids (high bit set).
func (r *Router) ownID() uint64 {
	r.nextOwnID++
	return r.nextOwnID | 1<<63
}

// observe records a non-terminal lifecycle event: a trace record, and a
// provenance stage transition (closing the previous stage's dwell
// interval). Safe to call on untracked packets — the zero handle makes
// the profiler half a no-op.
func (r *Router) observe(stage prov.Stage, p *netstack.Packet) {
	if r.Cfg.Trace != nil {
		r.Cfg.Trace.Emit(r.Eng.Now(), stage, p.ID)
	}
	if r.prof != nil {
		r.prof.Stage(p.Prov, stage, r.Eng.Now())
	}
}

// drop is the single drop choke point: it classifies the drop (see
// classifyDrop) and releases the buffer. A caller that still needs the
// frame bytes (the TTL offender an ICMP error quotes) reads them first.
func (r *Router) drop(p *netstack.Packet, reason prov.DropReason) {
	r.classifyDrop(p, reason)
	p.Release()
}

// classifyDrop is drop without the release, for the device hooks
// (ring overflow, stall, reset, the fault plane's wire drop) whose
// device releases the buffer itself. It increments the reason's kernel
// counter (queue-full reasons are already counted by the queue that
// rejected the packet), emits the trace record under the reason's
// canonical stage, and finalizes the provenance record as wasted (or
// counts an untracked drop for packets that never consumed CPU).
func (r *Router) classifyDrop(p *netstack.Packet, reason prov.DropReason) {
	switch reason {
	case prov.ReasonTTLExceeded:
		r.TTLDrops.Inc()
	case prov.ReasonBadChecksum:
		r.BadChecksumDrops.Inc()
	case prov.ReasonTruncated:
		r.TruncatedDrops.Inc()
	case prov.ReasonNoRoute, prov.ReasonMalformed:
		r.FwdErrors.Inc()
	case prov.ReasonNoSocket:
		r.NoSocketDrops.Inc()
	case prov.ReasonScreendReject:
		r.screend.Rejected.Inc()
	}
	// Fault-plane losses happen outside the traced kernel paths (their
	// reasons map to no stage) and are visible in the drop table only.
	if r.Cfg.Trace != nil && reason.Stage() != prov.StageNone {
		r.Cfg.Trace.EmitDrop(r.Eng.Now(), reason, p.ID)
	}
	if r.prof != nil {
		if p.Prov.Zero() {
			r.prof.DropUntracked(reason)
		} else {
			r.prof.Drop(p.Prov, reason, r.Eng.Now())
		}
	}
}

// invest charges d cycles of work on p to center in its provenance
// record. The caller separately charges the same cycles to the CPU
// model; invest only remembers where they went so a later drop can
// classify them as wasted.
func (r *Router) invest(p *netstack.Packet, center prov.Center, d sim.Duration) {
	if r.prof != nil {
		r.prof.Invest(p.Prov, center, d)
	}
}

// finalizeDeliver records a packet leaving the system usefully: the
// terminal trace record, and the provenance record closed as delivered
// (its invested cycles join the useful ledger).
func (r *Router) finalizeDeliver(stage prov.Stage, p *netstack.Packet) {
	if r.Cfg.Trace != nil {
		r.Cfg.Trace.Emit(r.Eng.Now(), stage, p.ID)
	}
	if r.prof != nil {
		r.prof.Deliver(p.Prov, r.Eng.Now())
	}
}

// wireObservers attaches the hardware-side observation hooks (the
// kernel paths call observe/drop/finalizeDeliver directly): provenance
// attach at ring accept, untracked drops at ring overflow, delivery
// finalization at the sinks, and the fault plane's loss hooks.
func (r *Router) wireObservers() {
	for _, in := range r.Ins {
		in.OnRxAccept = func(p *netstack.Packet) {
			if r.prof != nil {
				p.Prov = r.prof.Attach(p.ID, r.Eng.Now())
			}
			if r.Cfg.Trace != nil {
				r.Cfg.Trace.Emit(r.Eng.Now(), prov.StageRxRingAccept, p.ID)
			}
		}
		in.OnRxDrop = func(p *netstack.Packet) { r.classifyDrop(p, prov.ReasonRxRingFull) }
		in.OnStallDrop = func(p *netstack.Packet) { r.classifyDrop(p, prov.ReasonFaultStall) }
		in.OnResetDrop = func(p *netstack.Packet) { r.classifyDrop(p, prov.ReasonFaultReset) }
	}
	r.Sink.OnDeliver = func(p *netstack.Packet) { r.finalizeDeliver(prov.StageDelivered, p) }
	r.Sink.OnMalformed = r.dropMalformedAtSink
	for _, rev := range r.RevSinks {
		rev.OnDeliver = func(p *netstack.Packet) { r.finalizeDeliver(prov.StageRevDelivered, p) }
		rev.OnMalformed = r.dropMalformedAtSink
	}
	if r.fault != nil {
		r.fault.OnDrop = r.classifyDrop
	}
}

// dropMalformedAtSink closes out the provenance record of a corrupted
// frame the router forwarded but the sink rejected. The sink's own
// malformed counter is the user-visible signal; this only settles the
// cycle ledger (the forwarding work was wasted), so no router drop
// counter or trace record is produced.
func (r *Router) dropMalformedAtSink(p *netstack.Packet) {
	if r.prof == nil {
		return
	}
	if p.Prov.Zero() {
		r.prof.DropUntracked(prov.ReasonMalformed)
		return
	}
	r.prof.Drop(p.Prov, prov.ReasonMalformed, r.Eng.Now())
}

// Profile returns the attached cycle-attribution profile, or nil.
func (r *Router) Profile() *prof.Profile { return r.prof }

// smp reports whether this router runs more than one CPU.
func (r *Router) smp() bool { return r.Cfg.CPUs > 1 }

// Locks exposes the SMP kernel locks (both nil at CPUs == 1): the
// ipintrq lock and the net lock, in that order.
func (r *Router) Locks() (ipq, net *cpu.FairLock) { return r.ipqLock, r.netLock }

// Lockdep exposes the runtime lock-discipline checker, nil unless the
// router is SMP and Config.Lockdep (or LIVELOCK_LOCKDEP=1) armed it.
func (r *Router) Lockdep() *cpu.Lockdep { return r.ld }

// VisitCPUs calls fn for every processor in core order.
func (r *Router) VisitCPUs(fn func(*cpu.CPU)) { r.Sys.Visit(fn) }

// AuditCycles verifies cycle conservation on every core: the per-center
// ledger must sum to total busy time, and busy + idle must equal
// elapsed simulated time, per core. Finish runs it after the
// packet-conservation audit at the end of every run.
func (r *Router) AuditCycles() error {
	return r.Sys.AuditCycles(r.Eng.Now())
}

// WriteFolded emits the run's cycle attribution as folded stacks (the
// "frames value" lines flamegraph tools consume): cpu;<center> rows
// partitioning all CPU time, plus — when a profile is attached — the
// per-packet useful/wasted split and the drop-provenance weights.
// Values are microseconds.
func (r *Router) WriteFolded(w io.Writer) error {
	for ct := prov.Center(0); ct < prov.NumCenters; ct++ {
		var total sim.Duration
		r.Sys.Visit(func(c *cpu.CPU) { total += c.CenterTime(ct) })
		if us := total / sim.Microsecond; us > 0 {
			if _, err := fmt.Fprintf(w, "cpu;%s %d\n", ct, us); err != nil {
				return err
			}
		}
	}
	var idle sim.Duration
	r.Sys.Visit(func(c *cpu.CPU) { idle += c.IdleTime() })
	if us := idle / sim.Microsecond; us > 0 {
		if _, err := fmt.Fprintf(w, "cpu;idle %d\n", us); err != nil {
			return err
		}
	}
	if r.prof != nil {
		return r.prof.WriteFolded(w)
	}
	return nil
}

func (r *Router) scheduleTick() {
	r.Eng.AfterCall(clockTick, routerTick, r, nil)
}

// routerTick is the hardclock callback (sim.Callback shape): it fires
// every clock tick for the whole run, so it must not allocate.
func routerTick(a, _ any) {
	r := a.(*Router)
	r.clockTask.Post(r.Cfg.Costs.ClockTickCost, r.tick)
	r.scheduleTick()
}

// onTick runs in hardclock context.
func (r *Router) onTick() {
	r.ticks++
	if r.Cfg.Costs.HousekeepPerTick > 0 {
		r.houseTask.Post(r.Cfg.Costs.HousekeepPerTick, nil)
	}
	if r.polled != nil {
		r.polled.onTick(r.ticks)
	}
	if r.prof != nil {
		// The online livelock detector samples output progress against
		// wasted-work accumulation once per clock tick.
		r.prof.Tick(r.Eng.Now(), r.Delivered())
	}
}

// isLocal reports whether frame is addressed to the router itself, by
// peeking at the IP destination (the cheap dispatch test ip_input does
// first).
func (r *Router) isLocal(frame []byte) (*netPort, bool) {
	if len(frame) < netstack.EthHeaderLen+netstack.IPv4HeaderLen {
		return nil, false
	}
	var dst netstack.Addr
	copy(dst[:], frame[netstack.EthHeaderLen+16:netstack.EthHeaderLen+20])
	p, ok := r.localAddrs[dst]
	return p, ok
}

// fastPathHit reports whether a frame's destination is in the
// forwarding cache (a cost-model peek; the real lookup happens during
// forwarding).
//
//lkvet:requires netLock
func (r *Router) fastPathHit(frame []byte) bool {
	if r.fwd.Cache == nil || len(frame) < netstack.EthHeaderLen+netstack.IPv4HeaderLen {
		return false
	}
	var dst netstack.Addr
	copy(dst[:], frame[netstack.EthHeaderLen+16:netstack.EthHeaderLen+20])
	return r.fwd.Cache.Contains(dst)
}

// forwardFrame runs the real forwarding code on a packet and returns
// true if it was queued on an output interface. On any failure the
// packet has been counted and released; TTL expiry additionally
// generates an ICMP time-exceeded back toward the source (RFC 792).
//
//lkvet:requires netLock
func (r *Router) forwardFrame(p *netstack.Packet) bool {
	r.ld.Check(r.fwd)
	ifIdx, err := r.fwd.Forward(p.Data)
	if err != nil {
		switch err {
		case netstack.ErrTTLExceeded:
			// Quote the offender before the drop releases it; the
			// error is queued after the drop is recorded.
			msg, port := r.icmpError(netstack.ICMPTypeTimeExceeded, 0, p)
			r.drop(p, prov.ReasonTTLExceeded)
			if msg != nil {
				r.output(port, msg, prov.StageICMPQueued)
			}
		case netstack.ErrBadChecksum:
			// Classified separately from no-route errors: corruption
			// injected on the wire must land in its own conservation
			// bucket.
			r.drop(p, prov.ReasonBadChecksum)
		case netstack.ErrTruncated:
			r.drop(p, prov.ReasonTruncated)
		default:
			r.drop(p, prov.ReasonNoRoute)
		}
		return false
	}
	port := r.portByIdx[ifIdx]
	if port == nil {
		r.drop(p, prov.ReasonNoRoute)
		return false
	}
	return r.output(port, p, prov.StageForwarded)
}

// resolve is the output path's route/port/ARP resolver for frames the
// router originates: the attached port whose route covers dst and, when
// arp is set, dst's link address. ok is false when no route leads to an
// attached port or the ARP lookup misses.
//
//lkvet:requires netLock
func (r *Router) resolve(dst netstack.Addr, arp bool) (port *netPort, mac netstack.MAC, ok bool) {
	rt, err := r.fwd.Routes.Lookup(dst)
	if err != nil {
		return nil, mac, false
	}
	if port = r.portByIdx[rt.IfIndex]; port == nil {
		return nil, mac, false
	}
	if arp {
		if mac, ok = r.fwd.ARP.Lookup(dst); !ok {
			return nil, mac, false
		}
	}
	return port, mac, true
}

// output is the tail of the one output path (ip_output → ifqueue →
// if_start): queue p on port's ifqueue, or drop it as ReasonOutQFull;
// record stage once it is queued (StageNone records nothing); then
// start the transmitter. It reports whether p was queued.
//
//lkvet:requires netLock
func (r *Router) output(port *netPort, p *netstack.Packet, stage prov.Stage) bool {
	if !port.enqueueOut(p) {
		r.drop(p, prov.ReasonOutQFull)
		return false
	}
	if stage != prov.StageNone {
		r.observe(stage, p)
	}
	r.ifStart(port)
	return true
}

// icmpError originates an ICMP error quoting the offending frame,
// addressed toward the offender's source, and returns it with the port
// to queue it on — or nil, counted in ICMPFailures, when it cannot be
// built. The caller queues it through output; the CPU cost is part of
// the caller's current work item, as in a real ip_input path.
//
//lkvet:requires netLock
func (r *Router) icmpError(icmpType, code uint8, offender *netstack.Packet) (*netstack.Packet, *netPort) {
	origIP, err := netstack.EthPayload(offender.Data)
	if err != nil {
		r.ICMPFailures.Inc()
		return nil, nil
	}
	var ip netstack.IPv4Header
	if err := ip.Unmarshal(origIP); err != nil {
		r.ICMPFailures.Inc()
		return nil, nil
	}
	port, dstMAC, ok := r.resolve(ip.Src, true)
	if !ok {
		r.ICMPFailures.Inc()
		return nil, nil
	}
	spec := &netstack.ICMPErrorSpec{
		Type: icmpType, Code: code,
		SrcMAC: port.nic.MAC(), DstMAC: dstMAC,
		SrcIP: port.localIP, DstIP: ip.Src,
		IPID:     uint16(r.nextOwnID),
		Original: origIP[:ip.TotalLen],
	}
	msg := r.Pool.Get(spec.FrameLen())
	if msg == nil {
		r.ICMPFailures.Inc()
		return nil, nil
	}
	if _, err := netstack.BuildICMPError(msg.Data, spec); err != nil {
		msg.Release()
		r.ICMPFailures.Inc()
		return nil, nil
	}
	msg.ID = r.ownID()
	msg.Born = r.Eng.Now()
	r.RouterOriginated.Inc()
	r.ICMPSent.Inc()
	return msg, port
}

// transmitOwn queues a router-originated frame on the port serving dst.
// Used by the socket layer for application replies.
//
//lkvet:requires netLock
func (r *Router) transmitOwn(p *netstack.Packet, dst netstack.Addr) bool {
	port, _, ok := r.resolve(dst, false)
	if !ok {
		r.drop(p, prov.ReasonNoRoute)
		return false
	}
	r.RouterOriginated.Inc()
	return r.output(port, p, prov.StageReplyQueued)
}

// ifStart moves packets from a port's output ifqueue to free transmit
// descriptors; the CPU cost of this is folded into the caller's
// per-packet cost.
//
//lkvet:requires netLock
func (r *Router) ifStart(port *netPort) {
	for !port.outq.Empty() && port.nic.TxDescriptorsFree() > 0 {
		p := port.dequeueOut()
		r.observe(prov.StageTxDescriptor, p)
		if !port.nic.StartTx(p) {
			// Unreachable: a descriptor was free.
			panic("kernel: StartTx refused with free descriptor")
		}
	}
}

// deliverLocal is ip_input's local-delivery branch: ICMP echo requests
// are answered in place; TCP segments go to the in-kernel receiver; UDP
// datagrams go to the listening socket. The router does not reassemble:
// no simulated host fragments, so a fragment (only ever injected) is a
// malformed drop. The caller has already charged the CPU cost.
//
//lkvet:requires netLock
func (r *Router) deliverLocal(p *netstack.Packet) {
	if netstack.IsFragment(p.Data) {
		r.drop(p, prov.ReasonMalformed)
		return
	}
	proto := p.Data[netstack.EthHeaderLen+9]
	switch proto {
	case netstack.ProtoICMP:
		r.handleEcho(p)
	case netstack.ProtoTCP:
		r.deliverTCP(p)
	case netstack.ProtoUDP:
		var udp netstack.UDPHeader
		if err := udp.Unmarshal(p.Data[netstack.EthHeaderLen+netstack.IPv4HeaderLen:]); err != nil {
			r.drop(p, prov.ReasonMalformed)
			return
		}
		sock := r.sockets[udp.DstPort]
		if sock == nil {
			r.drop(p, prov.ReasonNoSocket)
			return
		}
		sock.deliver(p)
	default:
		r.drop(p, prov.ReasonMalformed)
	}
}

// handleEcho turns an ICMP echo request into an echo reply in place and
// transmits it back toward the requester, as icmp_reflect does.
//
//lkvet:requires netLock
func (r *Router) handleEcho(p *netstack.Packet) {
	var ip netstack.IPv4Header
	ipb, err := netstack.EthPayload(p.Data)
	if err != nil || ip.Unmarshal(ipb) != nil {
		r.drop(p, prov.ReasonMalformed)
		return
	}
	port, _, ok := r.resolve(ip.Src, false)
	if !ok {
		r.drop(p, prov.ReasonNoRoute)
		return
	}
	if err := netstack.MakeEchoReplyInPlace(p.Data, port.nic.MAC()); err != nil {
		r.drop(p, prov.ReasonMalformed)
		return
	}
	r.ICMPSent.Inc()
	r.RouterOriginated.Inc()
	// The request frame is consumed by the in-place conversion and the
	// reply counted as router-originated; without this bucket the
	// conservation ledger would double-count the buffer.
	r.EchoConsumed.Inc()
	// The conversion, not the enqueue, is the reply's stage: it is
	// recorded even when the ifqueue then drops the reply.
	r.observe(prov.StageEchoReply, p)
	r.output(port, p, prov.StageNone)
}

// AttachGenerator creates a generator offering load to input NIC i with
// the given arrival process and the standard flood addressing (UDP to
// the phantom destination beyond the router).
func (r *Router) AttachGenerator(i int, arrival workload.Arrival, maxPackets uint64) *workload.Generator {
	return r.AttachGeneratorTo(i, PhantomDest, 9, arrival, maxPackets)
}

// AttachGeneratorTo creates a generator targeting an arbitrary
// destination — e.g. the router's own address (RouterIP(i)) and an
// application port for client/server workloads.
func (r *Router) AttachGeneratorTo(i int, dst netstack.Addr, dstPort uint16,
	arrival workload.Arrival, maxPackets uint64) *workload.Generator {
	in := r.Ins[i]
	cfg := workload.Config{
		Arrival:       arrival,
		SrcMAC:        netstack.MAC{0xbb, 0, 0, 0, 0, byte(i + 1)},
		DstMAC:        in.MAC(),
		SrcIP:         InputSourceIP(i),
		DstIP:         dst,
		SrcPort:       5000 + uint16(i),
		SrcPortSpread: r.Cfg.FlowSpread,
		DstPort:       dstPort,
		PayloadBytes:  4,
		MaxPackets:    maxPackets,
	}
	g := workload.NewGenerator(r.Eng, r.RNG, r.SourceWires[i], r.Pool, cfg)
	r.gens = append(r.gens, g)
	return g
}

// UserCPUTime returns the CPU time consumed by the compute-bound user
// process, or 0 if none is configured.
func (r *Router) UserCPUTime() sim.Duration {
	if r.user == nil {
		return 0
	}
	return r.user.task.Consumed()
}

// Delivered returns the count of frames transmitted on the output
// interface (the paper's "Opkts" measurement).
func (r *Router) Delivered() uint64 { return r.Out.OutPkts.Value() }

// Accounting is a packet-conservation snapshot: every frame put into
// the system (by generators or by the router itself) is delivered,
// dropped at a counted point, or still alive in a buffer.
type Accounting struct {
	Delivered     uint64 // transmitted on the stub (output) Ethernet
	RevDelivered  uint64 // transmitted back onto the source Ethernets
	RingDrops     uint64 // dropped by input NIC hardware (ring full)
	IPIntrQDrops  uint64 // dropped at ipintrq (unmodified kernels)
	ScreendDrops  uint64 // dropped at the screend input queue
	OutQueueDrops uint64 // dropped at output ifqueues
	FilterDrops   uint64 // rejected by the screend filter
	SocketDrops   uint64 // dropped at socket buffers or for no socket
	FwdErrors     uint64 // forwarding failures (route, header)
	BadChecksums  uint64 // forwarder drops for IPv4 checksum mismatch
	Truncated     uint64 // forwarder drops for truncated frames
	TTLDrops      uint64 // TTL expiries (ICMP generated when possible)
	Malformed     uint64 // frames a sink failed to validate (0 without faults)
	Originated    uint64 // frames generated by the router (ICMP, replies)
	AppConsumed   uint64 // datagrams consumed by local applications
	EchoConsumed  uint64 // echo requests consumed by in-place reply conversion
	TCPConsumed   uint64 // TCP segments consumed by in-kernel receivers
	Alive         int    // packets still buffered in rings/queues/wires

	// Fault-plane buckets; all zero when Config.Fault is disabled.
	WireDrops  uint64 // frames the fault tap dropped on the wire
	StallDrops uint64 // frames lost at fault-stalled input NICs
	ResetDrops uint64 // frames discarded from rx rings by fault resets
	Duplicated uint64 // extra frames injected by the tap (a source, not a sink)
}

// Dropped sums all drop categories.
func (a Accounting) Dropped() uint64 {
	return a.RingDrops + a.IPIntrQDrops + a.ScreendDrops + a.OutQueueDrops +
		a.FilterDrops + a.SocketDrops + a.FwdErrors + a.BadChecksums +
		a.Truncated + a.TTLDrops + a.WireDrops + a.StallDrops + a.ResetDrops
}

// Account returns the conservation snapshot. An observer API: called
// between runs or after a drain, never from inside the simulation.
//
//lkvet:requires boot
func (r *Router) Account() Accounting {
	a := Accounting{
		Delivered:    r.Sink.Delivered.Value(),
		FwdErrors:    r.FwdErrors.Value(),
		BadChecksums: r.BadChecksumDrops.Value(),
		Truncated:    r.TruncatedDrops.Value(),
		TTLDrops:     r.TTLDrops.Value(),
		Malformed:    r.Sink.Malformed.Value(),
		Originated:   r.RouterOriginated.Value(),
		EchoConsumed: r.EchoConsumed.Value(),
	}
	for _, rev := range r.RevSinks {
		a.RevDelivered += rev.Delivered.Value()
		a.Malformed += rev.Malformed.Value()
	}
	for _, in := range r.Ins {
		a.RingDrops += in.InDiscards.Value()
		a.StallDrops += in.StallDrops.Value()
	}
	if r.fault != nil {
		a.WireDrops = r.fault.WireDrops.Value()
		a.ResetDrops = r.fault.ResetDrops.Value()
		a.Duplicated = r.fault.Duplicated.Value()
	}
	for _, p := range r.ports {
		a.OutQueueDrops += p.outq.Drops.Value()
	}
	if r.ipintrq != nil {
		a.IPIntrQDrops = r.ipintrq.Drops.Value()
	}
	if r.screendq != nil {
		a.ScreendDrops = r.screendq.Drops.Value()
	}
	if r.screend != nil {
		a.FilterDrops = r.screend.Rejected.Value()
	}
	for _, rx := range r.tcpPorts {
		a.TCPConsumed += rx.Segments.Value()
	}
	a.SocketDrops = r.NoSocketDrops.Value()
	for _, s := range r.sockets {
		a.SocketDrops += s.buf.Drops.Value()
		a.AppConsumed += s.Received.Value() - uint64(s.buf.Len())
	}
	a.Alive = r.Pool.Total() - r.Pool.Available()
	return a
}

// Audit verifies packet conservation: every frame generators offered
// (plus router-originated and fault-injected ones) must be accounted in
// exactly one terminal bucket. A non-nil error means the router lost or
// invented a buffer — the backbone correctness oracle behind every
// harness run (Finish) and the explore plane. generated is the count
// of frames the workload put on the input wires (Offered).
//
// The ledger balances at any event boundary, not just after a drain:
// in-flight frames hold pool buffers and are counted in Alive.
//
//lkvet:requires boot
func (r *Router) Audit(generated uint64) error {
	return r.Account().audit(generated)
}

// audit checks that the snapshot balances against generated. Sources
// are every frame put into the system: offered, originated by the
// router, or injected by the fault plane. Sinks are every terminal
// bucket: delivered on either side, rejected by a sink's validator,
// dropped at a counted point, consumed by the router or an
// application, or still buffered.
func (a Accounting) audit(generated uint64) error {
	sources := generated + a.Originated + a.Duplicated
	sinks := a.Delivered + a.RevDelivered + a.Malformed + a.Dropped() +
		a.AppConsumed + a.EchoConsumed + a.TCPConsumed +
		uint64(a.Alive)
	if sources == sinks {
		return nil
	}
	return fmt.Errorf(
		"kernel: packet conservation violated: sources=%d (generated=%d originated=%d duplicated=%d) != sinks=%d "+
			"(delivered=%d rev=%d malformed=%d ring=%d ipintrq=%d screendq=%d outq=%d filter=%d socket=%d "+
			"fwderr=%d badcksum=%d truncated=%d ttl=%d wire=%d stall=%d reset=%d "+
			"app=%d echo=%d tcp=%d alive=%d): %d frame(s) unaccounted",
		sources, generated, a.Originated, a.Duplicated, sinks,
		a.Delivered, a.RevDelivered, a.Malformed, a.RingDrops, a.IPIntrQDrops, a.ScreendDrops,
		a.OutQueueDrops, a.FilterDrops, a.SocketDrops,
		a.FwdErrors, a.BadChecksums, a.Truncated, a.TTLDrops,
		a.WireDrops, a.StallDrops, a.ResetDrops,
		a.AppConsumed, a.EchoConsumed, a.TCPConsumed, a.Alive,
		int64(sources)-int64(sinks))
}

// QueueStats exposes the internal queues for reporting; entries may be
// nil depending on configuration. outq is the stub-Ethernet ifqueue.
// An observer API for reporting code outside the simulation.
//
//lkvet:requires boot
func (r *Router) QueueStats() (ipintrq, outq, screendq *queue.Queue) {
	return r.ipintrq, r.portByIdx[OutIfIndex].outq, r.screendq
}

// InputInhibited reports whether input processing is currently gated off
// (modified kernel only).
func (r *Router) InputInhibited() bool {
	return r.polled != nil && !r.polled.gate.Open()
}

// PollerStats summarizes the polling thread's activity.
type PollerStats struct {
	Wakeups, Rounds, RxSteps, TxSteps  uint64
	FeedbackInhibits, FeedbackTimeouts uint64
	CycleInhibits                      uint64
}

// Poller returns poller statistics, or nil for interrupt-driven modes.
func (r *Router) Poller() *PollerStats {
	if r.polled == nil {
		return nil
	}
	s := &PollerStats{}
	for _, pol := range r.polled.pollers {
		s.Wakeups += pol.Wakeups.Value()
		s.Rounds += pol.Rounds.Value()
		s.RxSteps += pol.RxSteps.Value()
		s.TxSteps += pol.TxSteps.Value()
	}
	if r.polled.feedback != nil {
		s.FeedbackInhibits = r.polled.feedback.Inhibits.Value()
		s.FeedbackTimeouts = r.polled.feedback.Timeouts.Value()
	}
	if r.polled.limiter != nil {
		s.CycleInhibits = r.polled.limiter.Inhibits.Value()
	}
	return s
}
