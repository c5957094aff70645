package workload

import (
	"math"
	"testing"

	"livelock/internal/netstack"
	"livelock/internal/nic"
	"livelock/internal/sim"
)

func harness(cfg Config) (*sim.Engine, *Generator, *nic.Sink) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)
	sink := nic.NewSink(eng, "dst")
	wire := nic.NewWire(eng, sink, nic.EthernetBitRate, 0)
	pool := netstack.NewPool(4096, netstack.EthMaxFrame)
	gen := NewGenerator(eng, rng, wire, pool, cfg)
	return eng, gen, sink
}

func baseConfig(a Arrival) Config {
	return Config{
		Arrival: a,
		SrcIP:   netstack.AddrFrom(10, 0, 0, 2),
		DstIP:   netstack.AddrFrom(10, 0, 1, 9),
		SrcPort: 4000, DstPort: 9,
		PayloadBytes: 4,
	}
}

func TestConstantRateDelivers(t *testing.T) {
	eng, gen, sink := harness(baseConfig(ConstantRate{Rate: 1000}))
	gen.Start()
	eng.Run(sim.Time(sim.Second))
	got := float64(sink.Delivered.Value())
	if math.Abs(got-1000) > 10 {
		t.Fatalf("delivered %v frames in 1s at 1000pps", got)
	}
	if sink.Malformed.Value() != 0 {
		t.Fatalf("%d malformed frames", sink.Malformed.Value())
	}
	// Drain the frame that may still be in flight at the cutoff.
	gen.Stop()
	eng.Run(sim.Time(sim.Second + sim.Millisecond))
	if gen.Sent.Value() != sink.Delivered.Value() {
		t.Fatalf("sent %d != delivered %d", gen.Sent.Value(), sink.Delivered.Value())
	}
}

func TestConstantRateJitterStillAveragesRate(t *testing.T) {
	eng, gen, sink := harness(baseConfig(ConstantRate{Rate: 2000, JitterFrac: 0.3}))
	gen.Start()
	eng.Run(sim.Time(5 * sim.Second))
	got := float64(sink.Delivered.Value()) / 5
	if math.Abs(got-2000) > 100 {
		t.Fatalf("rate = %v, want ~2000", got)
	}
}

func TestPoissonRate(t *testing.T) {
	eng, gen, sink := harness(baseConfig(Poisson{Rate: 3000}))
	gen.Start()
	eng.Run(sim.Time(5 * sim.Second))
	got := float64(sink.Delivered.Value()) / 5
	if math.Abs(got-3000) > 200 {
		t.Fatalf("rate = %v, want ~3000", got)
	}
}

func TestBurstPattern(t *testing.T) {
	b := &Burst{PeakRate: 10000, On: sim.Millisecond, Off: 9 * sim.Millisecond}
	eng, gen, sink := harness(baseConfig(b))
	gen.Start()
	eng.Run(sim.Time(sim.Second))
	// Duty cycle 10%: ~10 packets per 10ms period → ~1000 pps average.
	got := float64(sink.Delivered.Value())
	if got < 800 || got > 1200 {
		t.Fatalf("burst average = %v pps, want ~1000", got)
	}
}

func TestMaxPacketsStops(t *testing.T) {
	cfg := baseConfig(ConstantRate{Rate: 10000})
	cfg.MaxPackets = 100
	eng, gen, sink := harness(cfg)
	gen.Start()
	eng.Run(sim.Time(sim.Second))
	if sink.Delivered.Value() != 100 {
		t.Fatalf("delivered %d, want exactly 100", sink.Delivered.Value())
	}
}

func TestStop(t *testing.T) {
	eng, gen, _ := harness(baseConfig(ConstantRate{Rate: 1000}))
	gen.Start()
	eng.Run(sim.Time(100 * sim.Millisecond))
	gen.Stop()
	at := gen.Sent.Value()
	eng.Run(sim.Time(sim.Second))
	if gen.Sent.Value() != at {
		t.Fatalf("generator kept sending after Stop (%d → %d)", at, gen.Sent.Value())
	}
}

func TestWireLimitsOfferedRate(t *testing.T) {
	// Asking for more than the wire can carry tops out near 14,880 pps.
	eng, gen, sink := harness(baseConfig(ConstantRate{Rate: 50000}))
	gen.Start()
	eng.Run(sim.Time(sim.Second))
	got := float64(sink.Delivered.Value())
	if got > 14900 {
		t.Fatalf("delivered %v pps, exceeds Ethernet maximum", got)
	}
	if got < 14000 {
		t.Fatalf("delivered %v pps, wire badly underutilized", got)
	}
}

func TestGeneratorFramesAreMinimumSize(t *testing.T) {
	eng, gen, sink := harness(baseConfig(ConstantRate{Rate: 100}))
	gen.Start()
	eng.Run(sim.Time(100 * sim.Millisecond))
	if sink.Delivered.Value() == 0 {
		t.Fatal("nothing delivered")
	}
	// 4-byte payload → 60-byte minimum frames; latency of each frame is
	// at least the serialization time (67.2µs).
	if min := sink.Latency.Min(); min < 67*sim.Microsecond {
		t.Fatalf("min latency %v below serialization time", min)
	}
}

func TestGeneratorPoolExhaustion(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)
	sink := nic.NewSink(eng, "dst")
	wire := nic.NewWire(eng, sink, nic.EthernetBitRate, 0)
	pool := netstack.NewPool(1, netstack.EthMaxFrame)
	gen := NewGenerator(eng, rng, wire, pool, baseConfig(ConstantRate{Rate: 100000}))
	gen.Start()
	eng.Run(sim.Time(10 * sim.Millisecond))
	if gen.PoolDrops.Value() == 0 {
		t.Fatal("expected pool drops with a 1-buffer pool at 100kpps")
	}
}

func TestNilArrivalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil arrival did not panic")
		}
	}()
	harness(Config{})
}

func TestBurstNilRNGSafe(t *testing.T) {
	// Burst ignores the RNG; exercised for the interface contract.
	b := &Burst{PeakRate: 1000, On: sim.Millisecond, Off: sim.Millisecond}
	if b.Next(sim.NewRNG(1)) <= 0 {
		t.Fatal("burst gap not positive")
	}
}

// TestOversizePayloadPanics: a payload whose frame would exceed
// EthMaxFrame is a configuration error, not a stream of pool drops. A
// payload that exactly fills the frame still sends.
func TestOversizePayloadPanics(t *testing.T) {
	maxPayload := netstack.EthMaxFrame - netstack.EthHeaderLen - netstack.IPv4HeaderLen - netstack.UDPHeaderLen
	cfg := baseConfig(ConstantRate{Rate: 1000})
	cfg.PayloadBytes = maxPayload
	eng, gen, sink := harness(cfg)
	gen.Start()
	eng.Run(sim.Time(20 * sim.Millisecond))
	if gen.PoolDrops.Value() != 0 || sink.Malformed.Value() != 0 || sink.Delivered.Value() == 0 {
		t.Fatalf("max payload: delivered %d, malformed %d, pool drops %d",
			sink.Delivered.Value(), sink.Malformed.Value(), gen.PoolDrops.Value())
	}

	defer func() {
		if recover() == nil {
			t.Fatal("oversize payload did not panic")
		}
	}()
	cfg.PayloadBytes = maxPayload + 1
	harness(cfg)
}
