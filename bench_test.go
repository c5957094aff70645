package livelock

// The benchmark harness regenerates every figure in the paper's
// evaluation (§6-§7). Each BenchmarkFigNN runs the corresponding sweep
// and reports the figure's headline quantities as custom metrics, so
// `go test -bench .` reproduces the paper's results table-style:
//
//   - peak_pps       — the curve's maximum forwarding rate (MLFRR);
//   - final_pps      — forwarding rate at the highest offered load
//     (equal to the peak for livelock-free curves, ~0 for livelocked);
//   - user_pct_*     — figure 7-1's user-CPU plateaus.
//
// Ablation benches then vary the design parameters DESIGN.md calls out
// (interrupt batching, TX ring depth, feedback watermarks, quota ×
// burstiness), and microbenches measure the substrate itself.

import (
	"fmt"
	"runtime"
	"testing"

	"livelock/internal/cpu"
	"livelock/internal/experiment"
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

// benchOpts keeps figure benches fast while preserving the shapes: a
// coarser rate axis and a 1.5 s measurement window per point. Figure
// sweeps go through the parallel trial executor (all cores, the
// default), which changes wall-clock but not results — every worker
// count produces bit-identical figures.
var benchOpts = Options{
	Rates:   []float64{1000, 2000, 3000, 4000, 5000, 6000, 8000, 10000, 12000},
	Warmup:  300 * Millisecond,
	Measure: 1500 * Millisecond,
}

// reportSeries attaches a series' headline numbers to the benchmark.
func reportSeries(b *testing.B, fig Figure) {
	b.Helper()
	for _, s := range fig.Series {
		label := sanitizeLabel(s.Label)
		b.ReportMetric(s.Peak(), "peak_pps:"+label)
		b.ReportMetric(s.Final(), "final_pps:"+label)
	}
}

func sanitizeLabel(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r == ' ' || r == ',':
			out = append(out, '_')
		case r == '(' || r == ')' || r == '=':
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// BenchmarkFig61 regenerates figure 6-1: forwarding performance of the
// unmodified kernel with and without screend.
func BenchmarkFig61(b *testing.B) {
	var fig Figure
	for i := 0; i < b.N; i++ {
		fig = Fig61(benchOpts)
	}
	reportSeries(b, fig)
}

// BenchmarkFig63 regenerates figure 6-3: the modified kernel without
// screend (unmodified / no-polling / quota 5 / no quota).
func BenchmarkFig63(b *testing.B) {
	var fig Figure
	for i := 0; i < b.N; i++ {
		fig = Fig63(benchOpts)
	}
	reportSeries(b, fig)
}

// BenchmarkFig64 regenerates figure 6-4: the screend path (unmodified /
// polling without feedback / polling with feedback).
func BenchmarkFig64(b *testing.B) {
	var fig Figure
	for i := 0; i < b.N; i++ {
		fig = Fig64(benchOpts)
	}
	reportSeries(b, fig)
}

// BenchmarkFig65 regenerates figure 6-5: the quota sweep without
// screend.
func BenchmarkFig65(b *testing.B) {
	var fig Figure
	for i := 0; i < b.N; i++ {
		fig = Fig65(benchOpts)
	}
	reportSeries(b, fig)
}

// BenchmarkFig66 regenerates figure 6-6: the quota sweep with screend
// and queue-state feedback.
func BenchmarkFig66(b *testing.B) {
	var fig Figure
	for i := 0; i < b.N; i++ {
		fig = Fig66(benchOpts)
	}
	reportSeries(b, fig)
}

// BenchmarkFig71 regenerates figure 7-1: user-mode CPU availability
// under the cycle-limit mechanism. Reported metrics are the user-CPU
// percentage at the highest input rate for each threshold.
func BenchmarkFig71(b *testing.B) {
	o := benchOpts
	o.Rates = []float64{0, 2000, 4000, 6000, 8000, 10000}
	var fig Figure
	for i := 0; i < b.N; i++ {
		fig = Fig71(o)
	}
	for _, s := range fig.Series {
		b.ReportMetric(s.Points[len(s.Points)-1].UserPct, "user_pct:"+sanitizeLabel(s.Label))
		b.ReportMetric(s.Points[0].UserPct, "user_pct_idle:"+sanitizeLabel(s.Label))
	}
}

// BenchmarkSweepWorkers measures the parallel trial executor's scaling
// on one full figure sweep; workers=1 is the old serial behaviour, so
// the ratio of the two timings is the executor's speedup on this
// machine.
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

// BenchmarkMLFRR reports the §3 MLFRR estimates for the main kernel
// configurations.
func BenchmarkMLFRR(b *testing.B) {
	o := Options{Warmup: 300 * Millisecond, Measure: Second}
	var unmod, polled float64
	for i := 0; i < b.N; i++ {
		var err error
		if unmod, err = MLFRR(Config{Mode: ModeUnmodified}, 0.98, o); err != nil {
			b.Fatal(err)
		}
		if polled, err = MLFRR(Config{Mode: ModePolled, Quota: 5}, 0.98, o); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(unmod, "mlfrr_pps:unmodified")
	b.ReportMetric(polled, "mlfrr_pps:polled_q5")
}

// BenchmarkBurstLatency reports §4.3's first-of-burst latency for
// 32-packet wire-speed bursts.
func BenchmarkBurstLatency(b *testing.B) {
	o := Options{Warmup: 200 * Millisecond, Measure: Second}
	var u, p experiment.LatencyPoint
	for i := 0; i < b.N; i++ {
		var err error
		if u, err = BurstLatency(ModeUnmodified, 32, o); err != nil {
			b.Fatal(err)
		}
		if p, err = BurstLatency(ModePolled, 32, o); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(u.FirstPkt.Micros(), "first_pkt_us:unmodified")
	b.ReportMetric(p.FirstPkt.Micros(), "first_pkt_us:polled")
}

// --- ablation benches (design choices called out in DESIGN.md) ---

// benchOutputRate is the forwarding rate of one ablation trial at rate,
// failing b on an audit error.
func benchOutputRate(b *testing.B, cfg Config, rate float64) float64 {
	b.Helper()
	res, err := RunTrial(cfg, rate, 300*Millisecond, Second)
	if err != nil {
		b.Fatal(err)
	}
	return res.OutputRate
}

// BenchmarkAblationBatching measures how interrupt batching shifts the
// overload behaviour of the unmodified kernel (§4.2: batching moves the
// livelock point but does not prevent livelock). Batching only engages
// once arrivals outpace the handler, so the comparison runs near the
// livelock point.
func BenchmarkAblationBatching(b *testing.B) {
	for _, batching := range []bool{true, false} {
		name := "batched"
		if !batching {
			name = "per-packet-interrupts"
		}
		b.Run(name, func(b *testing.B) {
			var out float64
			for i := 0; i < b.N; i++ {
				cfg := Config{Mode: ModeUnmodified, DisableBatching: !batching}
				out = benchOutputRate(b, cfg, 13500)
			}
			b.ReportMetric(out, "out_pps_at_13500")
		})
	}
}

// BenchmarkAblationTxRing varies the transmit descriptor ring against
// the no-quota kernel: deeper rings delay, but do not avoid, transmit
// starvation (§4.4/§6.6).
func BenchmarkAblationTxRing(b *testing.B) {
	for _, ring := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("txring=%d", ring), func(b *testing.B) {
			var out float64
			for i := 0; i < b.N; i++ {
				cfg := Config{Mode: ModePolled, Quota: -1}
				cfg.NIC.RxRing = 32
				cfg.NIC.TxRing = ring
				out = benchOutputRate(b, cfg, 9000)
			}
			b.ReportMetric(out, "out_pps_at_9000")
		})
	}
}

// BenchmarkAblationWatermarks varies the feedback hysteresis (§6.6.1:
// "we chose these high and low water marks arbitrarily, and some tuning
// might help").
func BenchmarkAblationWatermarks(b *testing.B) {
	for _, wm := range []struct{ high, low int }{
		{28, 4}, {24, 8}, {20, 12}, {16, 14},
	} {
		b.Run(fmt.Sprintf("high=%d,low=%d", wm.high, wm.low), func(b *testing.B) {
			var out float64
			for i := 0; i < b.N; i++ {
				cfg := Config{Mode: ModePolled, Quota: 10, Screend: true, Feedback: true,
					ScreendQHigh: wm.high, ScreendQLow: wm.low}
				out = benchOutputRate(b, cfg, 10000)
			}
			b.ReportMetric(out, "out_pps_at_10000")
		})
	}
}

// BenchmarkAblationRED compares drop-tail against Random Early
// Detection on a congested output link (§8: "other [drop] policies
// might provide better results" — Floyd & Jacobson, reference [3]).
// Two inputs send 1514-byte frames at 600/s each into one ~812 frame/s
// output Ethernet.
func BenchmarkAblationRED(b *testing.B) {
	run := func(red bool) (outPkts float64, p50ms float64) {
		eng := sim.NewEngine()
		r := kernel.NewRouter(eng, kernel.Config{
			Mode: kernel.ModePolled, Quota: 5, OutputRED: red, InputNICs: 2})
		for i := 0; i < 2; i++ {
			gcfg := workload.Config{
				Arrival:      workload.Poisson{Rate: 600},
				SrcMAC:       netstack.MAC{0xbb, 0, 0, 0, 0, byte(i + 1)},
				DstMAC:       r.Ins[i].MAC(),
				SrcIP:        kernel.InputSourceIP(i),
				DstIP:        kernel.PhantomDest,
				SrcPort:      5000 + uint16(i),
				DstPort:      9,
				PayloadBytes: 1460,
			}
			workload.NewGenerator(r.Eng, r.RNG, r.SourceWires[i], r.Pool, gcfg).Start()
		}
		eng.Run(sim.Time(3 * sim.Second))
		return float64(r.Delivered()) / 3,
			float64(r.Sink.Latency.Quantile(0.5)) / float64(sim.Millisecond)
	}
	for _, red := range []bool{false, true} {
		name := "drop-tail"
		if red {
			name = "red"
		}
		b.Run(name, func(b *testing.B) {
			var out, p50 float64
			for i := 0; i < b.N; i++ {
				out, p50 = run(red)
			}
			b.ReportMetric(out, "out_pps")
			b.ReportMetric(p50, "p50_ms")
		})
	}
}

// BenchmarkAblationQuotaBurstiness crosses the quota with arrival
// burstiness: quotas matter more when arrivals cluster.
func BenchmarkAblationQuotaBurstiness(b *testing.B) {
	arrivals := map[string]func() workload.Arrival{
		"constant": func() workload.Arrival { return workload.ConstantRate{Rate: 9000, JitterFrac: 0.05} },
		"poisson":  func() workload.Arrival { return workload.Poisson{Rate: 9000} },
		"bursty": func() workload.Arrival {
			return &workload.Burst{PeakRate: 14880, On: 4 * sim.Millisecond, Off: 2600 * sim.Microsecond}
		},
	}
	for _, q := range []int{5, 100} {
		for name, mk := range arrivals {
			b.Run(fmt.Sprintf("quota=%d/%s", q, name), func(b *testing.B) {
				var rate float64
				for i := 0; i < b.N; i++ {
					eng := sim.NewEngine()
					r := kernel.NewRouter(eng, kernel.Config{Mode: kernel.ModePolled, Quota: q})
					gen := r.AttachGenerator(0, mk(), 0)
					gen.Start()
					eng.Run(sim.Time(300 * sim.Millisecond))
					before := r.Delivered()
					eng.RunFor(sim.Duration(sim.Second))
					rate = float64(r.Delivered() - before)
				}
				b.ReportMetric(rate, "out_pps")
			})
		}
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
// complete across two priority levels.
func BenchmarkCPUDispatch(b *testing.B) {
	eng := sim.NewEngine()
	c := cpu.New(eng)
	low := c.NewTask("low", cpu.IPLThread, 0, cpu.ClassUser)
	high := c.NewTask("high", cpu.IPLDevice, 0, cpu.ClassIntr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		low.Post(100, nil)
		high.Post(10, nil) // preempts low
		eng.Run(eng.Now().Add(1000))
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

// BenchmarkAblationScreendRules scales the screend rule list (§5.4:
// inefficient code lowers the MLFRR and brings livelock closer).
func BenchmarkAblationScreendRules(b *testing.B) {
	for _, rules := range []int{1, 20, 60} {
		b.Run(fmt.Sprintf("rules=%d", rules), func(b *testing.B) {
			var peak float64
			for i := 0; i < b.N; i++ {
				cfg := Config{Mode: ModeUnmodified, Screend: true, ScreendRules: rules}
				peak = benchOutputRate(b, cfg, 2000)
			}
			b.ReportMetric(peak, "out_pps_at_2000")
		})
	}
}

// BenchmarkAblationFastPath measures §5.4's fast-path claim: a
// destination cache raises throughput at and beyond the MLFRR,
// postponing (not preventing) livelock.
func BenchmarkAblationFastPath(b *testing.B) {
	for _, fast := range []bool{false, true} {
		name := "slow-path"
		if fast {
			name = "fast-path"
		}
		b.Run(name, func(b *testing.B) {
			var at6k, at11k float64
			for i := 0; i < b.N; i++ {
				cfg := Config{Mode: ModeUnmodified, FastPath: fast}
				at6k = benchOutputRate(b, cfg, 6000)
				at11k = benchOutputRate(b, cfg, 11000)
			}
			b.ReportMetric(at6k, "out_pps_at_6000")
			b.ReportMetric(at11k, "out_pps_at_11000")
		})
	}
}

// BenchmarkAblationTCPFlavor compares Tahoe and Reno loss recovery for
// the same lossy transfer.
func BenchmarkAblationTCPFlavor(b *testing.B) {
	for _, variant := range []kernel.TCPVariant{kernel.VariantTahoe, kernel.VariantReno} {
		b.Run(variant.String(), func(b *testing.B) {
			var segs, goodput float64
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine()
				r := kernel.NewRouter(eng, kernel.Config{
					Mode: kernel.ModeUnmodified, InputNICs: 2})
				rx := r.OpenTCPReceiver(8080)
				snd := r.AttachTCPSender(0, kernel.TCPSenderConfig{
					Port: 8080, MSS: 512, Variant: variant})
				gen := r.AttachGenerator(1, workload.ConstantRate{Rate: 3500, JitterFrac: 0.05}, 0)
				gen.Start()
				snd.Start()
				eng.Run(sim.Time(3 * sim.Second))
				segs = float64(snd.SegmentsSent.Value())
				goodput = float64(rx.GoodputBytes) / 3
			}
			b.ReportMetric(goodput, "goodput_Bps")
			b.ReportMetric(segs, "segments_sent")
		})
	}
}
