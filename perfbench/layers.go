package main

import (
	"runtime"
	"time"

	"livelock/internal/core"
	"livelock/internal/cpu"
	"livelock/internal/kernel"
	"livelock/internal/netstack"
	"livelock/internal/nic"
	"livelock/internal/prov"
	"livelock/internal/queue"
	"livelock/internal/sim"
)

// Isolated layer timings: each one times calls into a single layer's
// public functions on the workload's own configuration and packet
// format, outside any router. A timing is the median over layerReps
// repetitions of a loop of calls.
const layerReps = 5

// perOp returns the median process CPU ns per operation of run, which
// performs n operations per call.
func perOp(n int, run func(n int)) float64 {
	xs := make([]float64, layerReps)
	for i := range xs {
		t0 := processCPU()
		run(n)
		xs[i] = float64(processCPU()-t0) / float64(n)
	}
	return median(xs)
}

// medianMs returns the median process CPU time of reps calls of fn, in
// ms.
func medianMs(reps int, fn func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		t0 := processCPU()
		fn()
		xs[i] = ms(processCPU() - t0)
	}
	return median(xs)
}

// layerCosts are the isolated timings of one workload's layers.
type layerCosts struct {
	callbackNs    float64 // sim: AfterCall + fire at the workload's heap depth
	postNs        float64 // cpu: PostCenter -> dispatch -> complete
	postEvents    float64 // engine events per post
	deliverTakeNs float64 // nic: DeliverFrame -> TakeRx -> RxIntrDone
	forwardNs     float64 // netstack: Forwarder.Forward
	checksumNs    float64 // netstack: Checksum over the IPv4 header
	lpmNs         float64 // netstack: RoutingTable.Lookup
	buildFrameNs  float64 // netstack: BuildUDPFrame
	poolGetPutNs  float64 // netstack: Pool.Get + Release
	poolNewMs     float64 // netstack: NewPool at the router's sizing
	queueOpsNs    float64 // queue: Enqueue + Dequeue
	pollRoundNs   float64 // core: one poll round
	roundDispatch float64 // cpu dispatches per poll round
	roundEvents   float64 // engine events per poll round
	newRouterMs   float64 // kernel: NewRouter
	auditMs       float64 // kernel: Audit + AuditCycles
}

// measureLayers times every layer for w. depth is the engine heap depth
// the workload runs at (its pending_max).
func measureLayers(w *simWorkload, seed uint64, depth int) layerCosts {
	cfg := kernel.NewRouter(sim.NewEngine(), w.config(seed)).Cfg // with defaults applied
	spec := generatorSpec(0)
	var lc layerCosts
	lc.callbackNs = timeCallback(depth)
	lc.postNs, lc.postEvents = timePost(cfg.Costs.IntrDispatch)
	lc.deliverTakeNs = timeDeliverTake(cfg)
	lc.forwardNs, lc.checksumNs, lc.lpmNs = timeForwarding(spec)
	lc.buildFrameNs = perOp(200000, func(n int) {
		buf := make([]byte, spec.FrameLen())
		for i := 0; i < n; i++ {
			if _, err := netstack.BuildUDPFrame(buf, &spec); err != nil {
				panic(err)
			}
		}
	})
	pool := netstack.NewPool(cfg.PoolBuffers, netstack.EthMaxFrame)
	lc.poolGetPutNs = perOp(500000, func(n int) {
		for i := 0; i < n; i++ {
			pool.Get(spec.FrameLen()).Release()
		}
	})
	lc.queueOpsNs = timeQueue(cfg.OutQueueLimit, pool.Get(spec.FrameLen()))
	lc.pollRoundNs, lc.roundDispatch, lc.roundEvents = timePollRound(cfg)
	su := measureSetupLayers(w, seed)
	lc.newRouterMs, lc.poolNewMs, lc.auditMs = su.newRouterMs, su.poolNewMs, su.auditMs
	return lc
}

// measureSetupLayers times the layers a router's construction and audit
// pay for at w's configuration.
func measureSetupLayers(w *simWorkload, seed uint64) layerCosts {
	cfg := kernel.NewRouter(sim.NewEngine(), w.config(seed)).Cfg // with defaults applied
	var lc layerCosts
	lc.newRouterMs = medianMs(15, func() { kernel.NewRouter(sim.NewEngine(), cfg) })
	lc.poolNewMs = medianMs(9, func() { netstack.NewPool(cfg.PoolBuffers, netstack.EthMaxFrame) })
	lc.auditMs = timeAudit(w, cfg)
	return lc
}

// generatorSpec is the frame the workload generator sends on input i:
// a 4-byte checksummed UDP datagram to the phantom destination.
func generatorSpec(srcPortOffset uint16) netstack.FrameSpec {
	return netstack.FrameSpec{
		SrcMAC:  netstack.MAC{0xbb, 0, 0, 0, 0, 1},
		DstMAC:  netstack.MAC{0xaa, 0, 0, 0, 0, 1},
		SrcIP:   kernel.InputSourceIP(0),
		DstIP:   kernel.PhantomDest,
		SrcPort: 5000 + srcPortOffset, DstPort: 9,
		TTL:         255,
		Payload:     []byte{0, 0, 0, 0},
		UDPChecksum: true,
	}
}

func noopCallback(_, _ any) {}

func timeCallback(depth int) float64 {
	eng := sim.NewEngine()
	for i := 0; i < depth; i++ {
		eng.AfterCall(sim.Duration(1)<<50+sim.Duration(i), noopCallback, nil, nil)
	}
	var fire sim.Callback
	fire = func(a, _ any) { a.(*sim.Engine).AfterCall(1000, fire, a, nil) }
	eng.AfterCall(1000, fire, eng, nil)
	return perOp(500000, func(n int) { eng.RunFor(sim.Duration(n) * 1000) })
}

func timePost(cost sim.Duration) (ns, events float64) {
	eng := sim.NewEngine()
	c := cpu.New(eng)
	t := c.NewTask("bench", cpu.IPLDevice, 0, cpu.ClassIntr)
	const n = 200000
	fired := eng.Fired()
	ns = perOp(n, func(n int) {
		for i := 0; i < n; i++ {
			t.PostCenter(cost, prov.CenterRxIntr, nil)
			eng.RunFor(cost)
		}
	})
	return ns, float64(eng.Fired()-fired) / (layerReps * n)
}

func timeDeliverTake(cfg kernel.Config) float64 {
	eng := sim.NewEngine()
	n := nic.New(eng, "bench", netstack.MAC{0xaa, 0, 0, 0, 0, 1}, cfg.NIC, nil)
	for q := 0; q < n.RxQueues(); q++ {
		n.SetRxQueueInterrupt(q, func() {})
	}
	// One frame per generator flow, so multi-queue NICs steer across
	// every queue as they do under the workload.
	flows := cfg.FlowSpread
	if flows < 1 {
		flows = 1
	}
	pool := netstack.NewPool(flows, netstack.EthMaxFrame)
	pkts := make([]*netstack.Packet, flows)
	for i := range pkts {
		spec := generatorSpec(uint16(i))
		pkts[i] = pool.Get(spec.FrameLen())
		if _, err := netstack.BuildUDPFrame(pkts[i].Data, &spec); err != nil {
			panic(err)
		}
	}
	return perOp(500000, func(k int) {
		for i := 0; i < k; i++ {
			n.DeliverFrame(pkts[i%flows])
			if n.TakeRx() == nil {
				panic("perfbench: delivered frame not in the rx ring")
			}
			n.RxIntrDone()
		}
	})
}

// timeForwarding times the forwarding decision and its two inner steps
// over the router's own tables: a direct route per attached network and
// a phantom ARP entry for the destination.
func timeForwarding(spec netstack.FrameSpec) (forward, checksum, lpm float64) {
	routes := netstack.NewRoutingTable()
	mustInsert(routes, netstack.Route{Prefix: netstack.AddrFrom(10, 0, 1, 0), Bits: 24, IfIndex: kernel.OutIfIndex})
	mustInsert(routes, netstack.Route{Prefix: netstack.AddrFrom(10, 0, 0, 0), Bits: 24, IfIndex: 0})
	arp := netstack.NewARPTable()
	arp.Insert(kernel.InputSourceIP(0), spec.SrcMAC)
	arp.InsertPhantom(kernel.PhantomDest)
	fwd := netstack.NewForwarder(routes, arp)
	fwd.IfMAC[kernel.OutIfIndex] = netstack.MAC{0xaa, 0, 0, 0, 1, 0}
	fwd.IfMAC[0] = spec.DstMAC

	frame := make([]byte, spec.FrameLen())
	build := func() {
		if _, err := netstack.BuildUDPFrame(frame, &spec); err != nil {
			panic(err)
		}
	}
	build()
	// Forward decrements the TTL in place; rebuilding the frame every
	// 200 calls keeps it far from expiry at a negligible amortized cost.
	forward = perOp(200000, func(n int) {
		for i := 0; i < n; i++ {
			if i%200 == 0 {
				build()
			}
			if _, err := fwd.Forward(frame); err != nil {
				panic(err)
			}
		}
	})
	build()
	ip := frame[netstack.EthHeaderLen : netstack.EthHeaderLen+netstack.IPv4HeaderLen]
	checksum = perOp(1000000, func(n int) {
		for i := 0; i < n; i++ {
			netstack.Checksum(ip)
		}
	})
	lpm = perOp(1000000, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := routes.Lookup(kernel.PhantomDest); err != nil {
				panic(err)
			}
		}
	})
	return forward, checksum, lpm
}

func mustInsert(t *netstack.RoutingTable, r netstack.Route) {
	if err := t.Insert(r); err != nil {
		panic(err)
	}
}

func timeQueue(limit int, p *netstack.Packet) float64 {
	eng := sim.NewEngine()
	q := queue.New("bench", limit, eng.Now)
	return perOp(1000000, func(n int) {
		for i := 0; i < n; i++ {
			q.Enqueue(p)
			q.Dequeue()
		}
	})
}

// timePollRound times one wakeup of a polling thread with the
// workload's quota and costs over a registered device holding exactly
// one quota of frames (5 when the quota is unlimited): a working round
// and the empty round that ends the wakeup. It returns ns per round and the CPU dispatches and engine
// events per round.
func timePollRound(cfg kernel.Config) (ns, dispatches, events float64) {
	eng := sim.NewEngine()
	c := cpu.New(eng)
	costs := cfg.Costs
	pol := core.NewPoller(eng, c, 10, core.PollerConfig{
		Quota: cfg.Quota, WakeupCost: costs.PollWakeup, RoundCost: costs.PollRound,
	})
	batch := cfg.Quota
	if batch <= 0 {
		batch = 5
	}
	pending := 0
	pol.Register(&core.Device{
		Name: "bench",
		Rx: func() (sim.Duration, func(), bool) {
			if pending == 0 {
				return 0, nil, false
			}
			pending--
			return costs.PolledRxPerPkt, nil, true
		},
		Tx: func() (sim.Duration, func(), bool) { return 0, nil, false },
	})
	span := costs.PollWakeup + 2*costs.PollRound + sim.Duration(batch)*costs.PolledRxPerPkt
	r0, d0, e0 := pol.Rounds.Value(), c.Dispatches(), eng.Fired()
	perWakeup := perOp(50000, func(n int) {
		for i := 0; i < n; i++ {
			pending = batch
			pol.Schedule()
			eng.RunFor(span)
		}
	})
	rounds := float64(pol.Rounds.Value() - r0)
	return perWakeup * (layerReps * 50000) / rounds,
		float64(c.Dispatches()-d0) / rounds,
		float64(eng.Fired()-e0) / rounds
}

// timeAudit times the two conservation audits on a router that has run
// the workload through its warmup.
func timeAudit(w *simWorkload, cfg kernel.Config) float64 {
	eng := sim.NewEngine()
	r := kernel.NewRouter(eng, cfg)
	gen := w.attach(r)
	eng.RunFor(warmup)
	return perOp(20000, func(n int) {
		for i := 0; i < n; i++ {
			if err := audit(r, gen); err != nil {
				panic(err)
			}
		}
	}) / 1e6
}

// timeSetup returns the process CPU time build takes, from a freshly
// collected heap as in runEpisode.
func timeSetup(build func()) time.Duration {
	runtime.GC()
	start := processCPU()
	build()
	return processCPU() - start
}
