package livelock

// These benchmarks measure the simulator's host cost: the substrate
// microbenches (engine, CPU dispatch, queue, pool, netstack), whole
// simulated seconds of the router, and the figure-sweep executor. None
// reports a model output. The reproduced figures are pinned by
// TestGoldenFigureHashes, and each paper claim is asserted by a test
// whose run is audited (see DESIGN.md §3).

import (
	"fmt"
	"runtime"
	"testing"

	"livelock/internal/cpu"
	"livelock/internal/fault"
	"livelock/internal/kernel"
	"livelock/internal/metrics"
	"livelock/internal/netstack"
	"livelock/internal/nic"
	"livelock/internal/prof"
	"livelock/internal/queue"
	"livelock/internal/sim"
	"livelock/internal/stats"
	"livelock/internal/workload"
)

// benchOpts are the golden-figure settings (TestGoldenFigureHashes)
// and the sweep BenchmarkSweepWorkers times: a coarser rate axis and a
// 1.5 s measurement window per point, which keep a sweep fast while
// preserving the figures' shapes.
var benchOpts = Options{
	Rates:   []float64{1000, 2000, 3000, 4000, 5000, 6000, 8000, 10000, 12000},
	Warmup:  300 * Millisecond,
	Measure: 1500 * Millisecond,
}

// BenchmarkSweepWorkers measures the parallel trial executor's scaling
// on one full figure sweep; workers=1 is the old serial behaviour, so
// the ratio of the two timings is the executor's speedup on this
// machine. Every worker count produces bit-identical figures.
func BenchmarkSweepWorkers(b *testing.B) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			o := benchOpts
			o.Parallel = workers
			var fig Figure
			for i := 0; i < b.N; i++ {
				fig = Fig63(o)
			}
			if len(fig.Errors) != 0 {
				b.Fatalf("sweep errors: %v", fig.Errors)
			}
		})
	}
}

// --- microbenches for the substrate itself ---

// BenchmarkEngineEvents measures raw event throughput of the simulator.
func BenchmarkEngineEvents(b *testing.B) {
	eng := sim.NewEngine()
	b.ReportAllocs()
	var fire func()
	n := 0
	fire = func() {
		n++
		if n < b.N {
			eng.After(1000, fire)
		}
	}
	eng.After(1000, fire)
	b.ResetTimer()
	eng.Run(sim.Time(int64(b.N+1) * 1000))
}

// BenchmarkEngineEventsCall measures the closure-free scheduling path
// (AfterCall + pooled events): the steady state is allocation-free.
func BenchmarkEngineEventsCall(b *testing.B) {
	eng := sim.NewEngine()
	b.ReportAllocs()
	n := 0
	var fire sim.Callback
	fire = func(a, _ any) {
		n++
		if n < b.N {
			a.(*sim.Engine).AfterCall(1000, fire, a, nil)
		}
	}
	eng.AfterCall(1000, fire, eng, nil)
	b.ResetTimer()
	eng.Run(sim.Time(int64(b.N+1) * 1000))
}

// BenchmarkEngineQueue measures one fired event at a fixed queue depth:
// depth self-rescheduling timers with seeded delays, so every firing
// schedules its successor into a queue that holds depth events. The
// Engine benches above keep one event pending and never exercise the
// queue's ordering; this one shows its cost as the depth grows.
func BenchmarkEngineQueue(b *testing.B) {
	for _, depth := range []int{8, 128, 1024} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			eng := sim.NewEngine()
			rng := sim.NewRNG(1)
			var tick sim.Callback
			tick = func(_, _ any) {
				eng.AfterCall(sim.Duration(1+rng.Intn(1000)), tick, nil, nil)
			}
			for i := 0; i < depth; i++ {
				tick(nil, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
		})
	}
}

// BenchmarkQueueOps measures one enqueue+dequeue through a bounded FIFO
// with live watermark hysteresis, per op pair.
func BenchmarkQueueOps(b *testing.B) {
	eng := sim.NewEngine()
	q := queue.New("bench", 64, eng.Now)
	q.SetWatermarks(48, 16)
	q.OnHigh = func() {}
	q.OnLow = func() {}
	pool := netstack.NewPool(64, 64)
	p := pool.Get(60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Enqueue(p)
		q.Dequeue()
	}
}

// BenchmarkPoolGetPut measures a buffer-pool allocate/release cycle.
func BenchmarkPoolGetPut(b *testing.B) {
	pool := netstack.NewPool(64, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.Get(1514).Release()
	}
}

// BenchmarkSamplerTick measures one metrics-sampler edge: read every
// instrument, record the row, reschedule.
func BenchmarkSamplerTick(b *testing.B) {
	eng := sim.NewEngine()
	reg := metrics.NewRegistry()
	for i := 0; i < 8; i++ {
		c := stats.NewCounter(fmt.Sprintf("c%d", i))
		if err := reg.Counter(c.Name(), c); err != nil {
			b.Fatal(err)
		}
	}
	s := metrics.NewSampler(eng, reg, sim.Millisecond)
	s.Start()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Run(eng.Now().Add(sim.Millisecond))
	}
}

// BenchmarkCPUDispatch measures the scheduling path: post + preempt +
// complete. ready=2 posts to two priority levels, the higher preempting
// the lower; ready=6 posts to six tasks at distinct levels in rising
// order, so each post preempts and all six are runnable at once.
func BenchmarkCPUDispatch(b *testing.B) {
	levels := []struct {
		ipl  cpu.IPL
		prio int
	}{
		{cpu.IPLThread, 0}, {cpu.IPLThread, 1}, {cpu.IPLSoft, 0},
		{cpu.IPLDevice, 0}, {cpu.IPLDevice, 1}, {cpu.IPLClock, 0},
	}
	for _, ready := range []int{2, 6} {
		b.Run(fmt.Sprintf("ready=%d", ready), func(b *testing.B) {
			eng := sim.NewEngine()
			c := cpu.New(eng)
			var tasks []*cpu.Task
			if ready == 2 {
				tasks = []*cpu.Task{
					c.NewTask("low", cpu.IPLThread, 0, cpu.ClassUser),
					c.NewTask("high", cpu.IPLDevice, 0, cpu.ClassIntr),
				}
			} else {
				for i, l := range levels {
					tasks = append(tasks, c.NewTask(fmt.Sprint("t", i), l.ipl, l.prio, cpu.ClassKernel))
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, t := range tasks {
					t.Post(sim.Duration(100-10*j), nil) // preempts the one before
				}
				eng.Run(eng.Now().Add(1000))
			}
		})
	}
}

// BenchmarkChecksum measures RFC 1071 checksum over a minimum frame.
func BenchmarkChecksum(b *testing.B) {
	buf := make([]byte, 60)
	for i := range buf {
		buf[i] = byte(i)
	}
	b.SetBytes(60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		netstack.Checksum(buf)
	}
}

// BenchmarkForward measures the full forwarding decision on a real
// frame: parse, TTL decrement with incremental checksum, LPM lookup,
// ARP, link-header rewrite.
func BenchmarkForward(b *testing.B) {
	routes := netstack.NewRoutingTable()
	routes.Insert(netstack.Route{Prefix: netstack.AddrFrom(10, 0, 1, 0), Bits: 24, IfIndex: 1})
	arp := netstack.NewARPTable()
	arp.InsertPhantom(netstack.AddrFrom(10, 0, 1, 9))
	fwd := netstack.NewForwarder(routes, arp)
	fwd.IfMAC[1] = netstack.MAC{0xaa, 0, 0, 0, 0, 1}
	spec := &netstack.FrameSpec{
		SrcIP: netstack.AddrFrom(10, 0, 0, 2), DstIP: netstack.AddrFrom(10, 0, 1, 9),
		SrcPort: 1, DstPort: 9, Payload: []byte{1, 2, 3, 4}, UDPChecksum: true,
		TTL: 255,
	}
	frame := make([]byte, spec.FrameLen())
	n, err := netstack.BuildUDPFrame(frame, spec)
	if err != nil {
		b.Fatal(err)
	}
	frame = frame[:n]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%250 == 0 {
			// Refresh the TTL before it runs out.
			frame[netstack.EthHeaderLen+8] = 255
			ip := frame[netstack.EthHeaderLen:]
			ip[10], ip[11] = 0, 0
			c := netstack.Checksum(ip[:netstack.IPv4HeaderLen])
			ip[10], ip[11] = byte(c>>8), byte(c)
		}
		if _, err := fwd.Forward(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGeneratorSend measures the generator's per-packet frame
// work: take a pool buffer and stamp the flow's template with the
// packet's IP ID and source port (both checksums patched from the
// template's partial sums), as workload.Generator does for every
// offered packet.
func BenchmarkGeneratorSend(b *testing.B) {
	tmpl := netstack.NewUDPTemplate(netstack.FrameSpec{
		SrcMAC: netstack.MAC{0xbb, 0, 0, 0, 0, 1}, DstMAC: netstack.MAC{0xaa, 0, 0, 0, 0, 1},
		SrcIP: netstack.AddrFrom(10, 0, 0, 2), DstIP: netstack.AddrFrom(10, 0, 1, 9),
		DstPort: 9, Payload: make([]byte, 4), UDPChecksum: true,
	})
	pool := netstack.NewPool(64, netstack.EthMaxFrame)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pool.Get(tmpl.Len())
		tmpl.Stamp(p.Data, uint16(i), 5000+uint16(i%4))
		p.Release()
	}
}

// BenchmarkRoutingLookup measures LPM over a populated trie.
func BenchmarkRoutingLookup(b *testing.B) {
	rt := netstack.NewRoutingTable()
	rng := sim.NewRNG(7)
	for i := 0; i < 1024; i++ {
		rt.Insert(netstack.Route{
			Prefix:  netstack.AddrFromUint32(uint32(rng.Uint64())),
			Bits:    8 + rng.Intn(25),
			IfIndex: i,
		})
	}
	rt.Insert(netstack.Route{Bits: 0, IfIndex: 9999}) // default
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Lookup(netstack.AddrFromUint32(uint32(i) * 2654435761)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatedSecond measures how fast the full router simulation
// runs relative to real time at the paper's peak load. The
// cycle-attribution profiler is NOT attached: this is the
// profiler-disabled configuration the 2% lkbench overhead band gates
// (see cmd/lkbench defaultTight).
func BenchmarkSimulatedSecond(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		r := kernel.NewRouter(eng, kernel.Config{Mode: kernel.ModePolled, Quota: 5})
		gen := r.AttachGenerator(0, workload.ConstantRate{Rate: 5000, JitterFrac: 0.05}, 0)
		gen.Start()
		eng.Run(sim.Time(sim.Second))
	}
}

// BenchmarkSimulatedSecondSteady is the steady-state half of
// BenchmarkSimulatedSecond: the same router and load, built and warmed
// up for one simulated second outside the timer, then one more
// simulated second per op. Construction cost (the packet pool, rings,
// tasks) is excluded, so what remains is the per-packet hot path, and
// lkbench gates its allocs/op at 0.
func BenchmarkSimulatedSecondSteady(b *testing.B) {
	eng := sim.NewEngine()
	r := kernel.NewRouter(eng, kernel.Config{Mode: kernel.ModePolled, Quota: 5})
	gen := r.AttachGenerator(0, workload.ConstantRate{Rate: 5000, JitterFrac: 0.05}, 0)
	gen.Start()
	eng.Run(sim.Time(sim.Second))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunFor(sim.Second)
	}
}

// BenchmarkSimulatedSecondProfiled is the same simulated second with the
// cycle-attribution profiler attached: the delta against
// BenchmarkSimulatedSecond is the profiler's enabled cost, and the
// steady-state allocation count must match the unprofiled run (the
// profiler preallocates; Attach/Invest/Drop/Deliver are free-list only).
func BenchmarkSimulatedSecondProfiled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		cfg := kernel.Config{Mode: kernel.ModePolled, Quota: 5, Profile: prof.New()}
		r := kernel.NewRouter(eng, cfg)
		gen := r.AttachGenerator(0, workload.ConstantRate{Rate: 5000, JitterFrac: 0.05}, 0)
		gen.Start()
		eng.Run(sim.Time(sim.Second))
	}
}

// BenchmarkSimulatedSecondSMP4 is the SimulatedSecond twin on four
// virtual CPUs: per-core run queues, RSS steering across four receive
// queues, and FairLock-guarded shared queues all active. The delta
// against BenchmarkSimulatedSecond is the SMP machinery's enabled
// cost; at -cpus 1 that machinery is compiled out of the hot path
// entirely, which the SimulatedSecond 2% band pins.
func BenchmarkSimulatedSecondSMP4(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		cfg := kernel.Config{Mode: kernel.ModePolled, Quota: 5, CPUs: 4}
		r := kernel.NewRouter(eng, cfg)
		gen := r.AttachGenerator(0, workload.ConstantRate{Rate: 5000, JitterFrac: 0.05}, 0)
		gen.Start()
		eng.Run(sim.Time(sim.Second))
	}
}

// BenchmarkSimulatedSecondCoalesceSACK is the SimulatedSecond twin on
// the T-figure path (EXPERIMENTS.md): count-8 interrupt coalescing
// with a 5 ms holdoff, the reorder + drop wire faults, and a SACK bulk
// transfer with a resequencing receiver driving the load instead of
// the open-loop generator. The delta against BenchmarkSimulatedSecond
// is the enabled cost of the coalescing timers, the reorder hold
// queue, and the TCP machinery together; with all of them configured
// off, their hot-path cost is zero, which the SimulatedSecond 2% band
// pins.
func BenchmarkSimulatedSecondCoalesceSACK(b *testing.B) {
	// One throwaway iteration hoists the TCP path's lazy one-time
	// initialization out of the measurement, keeping allocs/op exact
	// (the gate's alloc bound) at any iteration count.
	simulatedSecondCoalesceSACK()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simulatedSecondCoalesceSACK()
	}
}

func simulatedSecondCoalesceSACK() {
	eng := sim.NewEngine()
	cfg := kernel.Config{Mode: kernel.ModePolled, Quota: 5, Seed: 1}
	cfg.NIC.Coalesce = nic.CoalesceConfig{Policy: nic.CoalesceCount,
		CountThresh: 8, TimerThresh: 5 * sim.Millisecond}
	cfg.Fault = fault.Config{
		DropProb:     0.02,
		ReorderProb:  0.05,
		ReorderSpan:  4,
		ReorderMode:  fault.ReorderDisplace,
		ReorderFlush: 8 * sim.Millisecond,
	}
	r := kernel.NewRouter(eng, cfg)
	rx := r.OpenTCPReceiver(8080)
	rx.EnableSACK()
	rx.SetResequencing(8 * sim.Millisecond)
	snd := r.AttachTCPSender(0, kernel.TCPSenderConfig{
		Port: 8080, MSS: 512, Variant: kernel.VariantSACK,
		MaxCwnd: 16, RTO: 50 * sim.Millisecond,
	})
	snd.Start()
	eng.Run(sim.Time(sim.Second))
}
