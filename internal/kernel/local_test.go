package kernel

import (
	"bytes"
	"testing"

	"livelock/internal/netstack"
	"livelock/internal/prov"
	"livelock/internal/sim"
	"livelock/internal/trace"
	"livelock/internal/workload"
)

// TestTTLExpiryGeneratesICMP: packets arriving with TTL 1 must be
// dropped with an ICMP time-exceeded sent back to the source.
func TestTTLExpiryGeneratesICMP(t *testing.T) {
	for _, mode := range []Mode{ModeUnmodified, ModePolled} {
		eng := sim.NewEngine()
		r := NewRouter(eng, Config{Mode: mode, Quota: 5})
		// Hand-build TTL-1 frames and inject them on the source wire.
		spec := &netstack.FrameSpec{
			SrcMAC: netstack.MAC{0xbb, 0, 0, 0, 0, 1}, DstMAC: r.Ins[0].MAC(),
			SrcIP: InputSourceIP(0), DstIP: PhantomDest,
			SrcPort: 5000, DstPort: 9, TTL: 1,
			Payload: []byte{1, 2, 3, 4}, UDPChecksum: true,
		}
		for i := 0; i < 10; i++ {
			p := r.Pool.Get(spec.FrameLen())
			if _, err := netstack.BuildUDPFrame(p.Data, spec); err != nil {
				t.Fatal(err)
			}
			p.ID = uint64(i + 1)
			p.Born = eng.Now()
			r.SourceWires[0].Transmit(p)
		}
		eng.Run(sim.Time(200 * sim.Millisecond))

		if r.TTLDrops.Value() != 10 {
			t.Fatalf("%v: TTLDrops = %d, want 10", mode, r.TTLDrops.Value())
		}
		if r.ICMPSent.Value() != 10 {
			t.Fatalf("%v: ICMPSent = %d, want 10", mode, r.ICMPSent.Value())
		}
		rev := r.RevSinks[0]
		if rev.ICMP.Value() != 10 {
			t.Fatalf("%v: reverse sink saw %d ICMP frames, want 10 (malformed=%d)",
				mode, rev.ICMP.Value(), rev.Malformed.Value())
		}
		if r.Delivered() != 0 {
			t.Fatalf("%v: expired packets were forwarded", mode)
		}
	}
}

// TestTTLErrorQuotesOffenderBeforeDrop: the time-exceeded error quotes
// the offending datagram intact even though the drop releases the
// offender's buffer (the pool hands freed buffers out last-in
// first-out, so a release before the quote would overwrite it), and
// the trace still records the drop before the error is queued.
func TestTTLErrorQuotesOffenderBeforeDrop(t *testing.T) {
	for _, mode := range []Mode{ModeUnmodified, ModePolled} {
		eng := sim.NewEngine()
		tr := trace.New(256)
		r := NewRouter(eng, Config{Mode: mode, Quota: 5, Trace: tr})
		spec := &netstack.FrameSpec{
			SrcMAC: netstack.MAC{0xbb, 0, 0, 0, 0, 1}, DstMAC: r.Ins[0].MAC(),
			SrcIP: InputSourceIP(0), DstIP: PhantomDest,
			SrcPort: 5000, DstPort: 9, TTL: 1,
			Payload: []byte{1, 2, 3, 4}, UDPChecksum: true,
		}
		frame := make([]byte, spec.FrameLen())
		if _, err := netstack.BuildUDPFrame(frame, spec); err != nil {
			t.Fatal(err)
		}
		offender := frame[netstack.EthHeaderLen:]
		var quotes int
		r.RevSinks[0].OnDeliver = func(p *netstack.Packet) {
			_, _, _, quoted, err := netstack.ParseICMPFrame(p.Data)
			if err != nil {
				t.Fatalf("%v: ICMP error: %v", mode, err)
			}
			if len(quoted) < netstack.IPv4HeaderLen || !bytes.Equal(quoted, offender[:len(quoted)]) {
				t.Fatalf("%v: quoted %x, want a prefix of the offender's datagram %x", mode, quoted, offender)
			}
			quotes++
		}
		const n = 5
		for i := 0; i < n; i++ {
			p := r.Pool.Get(spec.FrameLen())
			if _, err := netstack.BuildUDPFrame(p.Data, spec); err != nil {
				t.Fatal(err)
			}
			p.ID = uint64(i + 1)
			p.Born = eng.Now()
			r.SourceWires[0].Transmit(p)
		}
		eng.Run(sim.Time(200 * sim.Millisecond))

		if quotes != n {
			t.Fatalf("%v: %d ICMP errors delivered, want %d", mode, quotes, n)
		}
		if alive := r.Pool.Total() - r.Pool.Available(); alive != 0 {
			t.Fatalf("%v: %d buffers still held after the drain", mode, alive)
		}
		recs := tr.Records()
		drops := 0
		for i, rec := range recs {
			if rec.Reason != prov.ReasonTTLExceeded {
				continue
			}
			drops++
			if i+1 == len(recs) || recs[i+1].Stage != prov.StageICMPQueued {
				t.Fatalf("%v: TTL drop of pkt %d is not followed by its queued ICMP error", mode, rec.Pkt)
			}
		}
		if drops != n {
			t.Fatalf("%v: %d TTL drop records, want %d", mode, drops, n)
		}
	}
}

// TestPingRouter: ICMP echo requests addressed to the router itself are
// answered with valid echo replies.
func TestPingRouter(t *testing.T) {
	for _, mode := range []Mode{ModeUnmodified, ModePolled} {
		eng := sim.NewEngine()
		r := NewRouter(eng, Config{Mode: mode, Quota: 5})
		spec := &netstack.EchoSpec{
			SrcMAC: netstack.MAC{0xbb, 0, 0, 0, 0, 1}, DstMAC: r.Ins[0].MAC(),
			SrcIP: InputSourceIP(0), DstIP: RouterIP(0),
			Ident: 7, Payload: []byte("ping-payload"),
		}
		for i := 0; i < 5; i++ {
			p := r.Pool.Get(spec.FrameLen())
			spec.Seq = uint16(i)
			if _, err := netstack.BuildEchoRequest(p.Data, spec); err != nil {
				t.Fatal(err)
			}
			p.ID = uint64(i + 1)
			p.Born = eng.Now()
			r.SourceWires[0].Transmit(p)
		}
		eng.Run(sim.Time(200 * sim.Millisecond))

		rev := r.RevSinks[0]
		if rev.ICMP.Value() != 5 {
			t.Fatalf("%v: got %d echo replies, want 5 (malformed=%d)",
				mode, rev.ICMP.Value(), rev.Malformed.Value())
		}
		if r.ICMPSent.Value() != 5 {
			t.Fatalf("%v: ICMPSent = %d", mode, r.ICMPSent.Value())
		}
	}
}

// TestUDPServerServesRequests: an RPC-style server on the router
// receives requests and sends replies back to the client network.
func TestUDPServerServesRequests(t *testing.T) {
	for _, mode := range []Mode{ModeUnmodified, ModePolled} {
		eng := sim.NewEngine()
		r := NewRouter(eng, Config{Mode: mode, Quota: 5})
		app := r.StartApp(AppConfig{
			Port:        2049,
			RecvCost:    100 * sim.Microsecond,
			ProcessCost: 200 * sim.Microsecond,
			ReplyBytes:  64,
			ReplyCost:   100 * sim.Microsecond,
		})
		gen := r.AttachGeneratorTo(0, RouterIP(0), 2049,
			workload.ConstantRate{Rate: 500}, 200)
		gen.Start()
		eng.Run(sim.Time(sim.Second))

		if app.Served.Value() != 200 {
			t.Fatalf("%v: served %d of 200 requests (sock drops %d)",
				mode, app.Served.Value(), app.Socket().Drops())
		}
		if app.Replied.Value() != 200 {
			t.Fatalf("%v: replied %d", mode, app.Replied.Value())
		}
		rev := r.RevSinks[0]
		if rev.Delivered.Value() != 200 {
			t.Fatalf("%v: client saw %d replies (malformed=%d)",
				mode, rev.Delivered.Value(), rev.Malformed.Value())
		}
	}
}

// TestAppPlaneLockCorrectOnSMP: on a 2-CPU router the server's recv
// dequeue and reply transmit run under netLock, so an armed lockdep
// sees no violation, and the run audits clean.
func TestAppPlaneLockCorrectOnSMP(t *testing.T) {
	for _, mode := range []Mode{ModeUnmodified, ModePolled} {
		eng := sim.NewEngine()
		r := NewRouter(eng, Config{Mode: mode, Quota: 5, CPUs: 2, Lockdep: true})
		var violations []string
		r.Lockdep().SetOnViolation(func(msg string) { violations = append(violations, msg) })
		app := r.StartApp(AppConfig{
			Port:        2049,
			RecvCost:    80 * sim.Microsecond,
			ProcessCost: 120 * sim.Microsecond,
			ReplyBytes:  64,
			ReplyCost:   80 * sim.Microsecond,
		})
		gen := r.AttachGeneratorTo(0, RouterIP(0), 2049,
			workload.ConstantRate{Rate: 2000, JitterFrac: 0.05}, 0)
		gen.Start()
		eng.Run(sim.Time(200 * sim.Millisecond))
		if _, err := r.Finish(50 * sim.Millisecond); err != nil {
			t.Errorf("%v: %v", mode, err)
		}
		if len(violations) > 0 {
			t.Errorf("%v: %d lockdep violations, first: %s", mode, len(violations), violations[0])
		}
		if app.Replied.Value() == 0 || r.Lockdep().Checks() == 0 {
			t.Errorf("%v: replied %d with %d lockdep checks; want both > 0",
				mode, app.Replied.Value(), r.Lockdep().Checks())
		}
	}
}

// TestNoSocketCountsDrop: locally-addressed UDP with no listener is
// counted.
func TestNoSocketCountsDrop(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRouter(eng, Config{Mode: ModePolled, Quota: 5})
	gen := r.AttachGeneratorTo(0, RouterIP(0), 9999, workload.ConstantRate{Rate: 100}, 20)
	gen.Start()
	eng.Run(sim.Time(sim.Second))
	if r.NoSocketDrops.Value() != 20 {
		t.Fatalf("NoSocketDrops = %d, want 20", r.NoSocketDrops.Value())
	}
}

// TestServerUnderLivelock reproduces the paper's end-system motivation:
// under a flood aimed at the router's own application, the
// interrupt-driven kernel starves the server (requests die in the
// socket/ipintrq queues) while the polled kernel with a cycle limit
// keeps serving a predictable fraction.
func TestServerUnderLivelock(t *testing.T) {
	serve := func(mode Mode, threshold float64) (served float64, replied float64) {
		eng := sim.NewEngine()
		cfg := Config{Mode: mode, Quota: 5, CycleLimitThreshold: threshold}
		r := NewRouter(eng, cfg)
		app := r.StartApp(AppConfig{
			Port:        2049,
			RecvCost:    80 * sim.Microsecond,
			ProcessCost: 120 * sim.Microsecond,
			ReplyBytes:  128,
			ReplyCost:   80 * sim.Microsecond,
		})
		gen := r.AttachGeneratorTo(0, RouterIP(0), 2049,
			workload.ConstantRate{Rate: 12000, JitterFrac: 0.05}, 0)
		gen.Start()
		eng.Run(sim.Time(2 * sim.Second))
		return float64(app.Served.Value()) / 2, float64(app.Replied.Value()) / 2
	}

	unmodServed, _ := serve(ModeUnmodified, 0)
	polledServed, polledReplied := serve(ModePolled, 0.5)
	if unmodServed > 100 {
		t.Fatalf("unmodified kernel served %.0f req/s under flood, want starvation", unmodServed)
	}
	if polledServed < 1000 {
		t.Fatalf("polled+limit served only %.0f req/s", polledServed)
	}
	if polledReplied < 0.95*polledServed {
		t.Fatalf("replies (%.0f/s) lag serves (%.0f/s): transmit starved", polledReplied, polledServed)
	}
}

// TestConservationWithLocalTraffic extends the conservation invariant to
// router-originated frames: generated + originated = delivered (both
// directions) + dropped + alive.
func TestConservationWithLocalTraffic(t *testing.T) {
	for _, mode := range []Mode{ModeUnmodified, ModePolled} {
		eng := sim.NewEngine()
		r := NewRouter(eng, Config{Mode: mode, Quota: 5})
		r.StartApp(AppConfig{
			Port:     2049,
			RecvCost: 100 * sim.Microsecond, ProcessCost: 100 * sim.Microsecond,
			ReplyBytes: 32, ReplyCost: 100 * sim.Microsecond,
		})
		// Mixed workload: transit flood + requests to the app.
		flood := r.AttachGenerator(0, workload.ConstantRate{Rate: 6000}, 0)
		reqs := r.AttachGeneratorTo(0, RouterIP(0), 2049, workload.Poisson{Rate: 900}, 0)
		flood.Start()
		reqs.Start()
		eng.Run(sim.Time(2 * sim.Second))
		flood.Stop()
		reqs.Stop()
		eng.RunFor(500 * sim.Millisecond)

		a := r.Account()
		in := flood.Sent.Value() + reqs.Sent.Value() + a.Originated
		out := a.Delivered + a.RevDelivered + a.Dropped() + a.AppConsumed + uint64(a.Alive)
		if in != out {
			t.Fatalf("%v: conservation: in=%d out=%d %+v", mode, in, out, a)
		}
		if a.Malformed != 0 {
			t.Fatalf("%v: malformed = %d", mode, a.Malformed)
		}
	}
}

// TestSocketFeedbackKeepsServerAlive: applying §6.6.1's queue-state
// feedback to the socket buffer protects a local server without a cycle
// limiter — the generalization the paper sketches for "other queues in
// the system".
func TestSocketFeedbackKeepsServerAlive(t *testing.T) {
	run := func(feedback bool) float64 {
		eng := sim.NewEngine()
		r := NewRouter(eng, Config{Mode: ModePolled, Quota: 5})
		app := r.StartApp(AppConfig{
			Port:        2049,
			RecvCost:    80 * sim.Microsecond,
			ProcessCost: 120 * sim.Microsecond,
			ReplyBytes:  128,
			ReplyCost:   80 * sim.Microsecond,
			Feedback:    feedback,
		})
		gen := r.AttachGeneratorTo(0, RouterIP(0), 2049,
			workload.ConstantRate{Rate: 12000, JitterFrac: 0.05}, 0)
		gen.Start()
		eng.Run(sim.Time(2 * sim.Second))
		return float64(app.Served.Value()) / 2
	}
	without := run(false)
	with := run(true)
	if without > 200 {
		t.Fatalf("server without feedback served %.0f req/s under flood, expected starvation", without)
	}
	if with < 1500 {
		t.Fatalf("server with socket feedback served only %.0f req/s", with)
	}
}
