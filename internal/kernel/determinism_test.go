package kernel

import (
	"fmt"
	"testing"

	"livelock/internal/sim"
	"livelock/internal/workload"
)

// TestDeterminismAcrossConfigs: identical (config, seed) pairs produce
// bit-identical simulations for every kernel architecture and feature
// combination, including ones with heavy feedback/limiter state.
func TestDeterminismAcrossConfigs(t *testing.T) {
	configs := []Config{
		{Mode: ModeUnmodified, Screend: true, ScreendRules: 16},
		{Mode: ModeUnmodified, FastPath: true, DisableBatching: true},
		{Mode: ModePolledCompat},
		{Mode: ModePolled, Quota: 7, Screend: true, Feedback: true},
		{Mode: ModePolled, Quota: 5, CycleLimitThreshold: 0.4, UserProcess: true},
		{Mode: ModePolled, Quota: 5, InputNICs: 2},
		{Mode: ModePolled, Quota: 5, ClockedPollInterval: 500 * sim.Microsecond},
	}
	for i, cfg := range configs {
		cfg.Seed = 99
		run := func() string {
			eng := sim.NewEngine()
			r := NewRouter(eng, cfg)
			for in := range r.Ins {
				gen := r.AttachGenerator(in, workload.Poisson{Rate: 7000}, 0)
				gen.Start()
			}
			eng.Run(sim.Time(1200 * sim.Millisecond))
			a := r.Account()
			return fmt.Sprintf("%d/%d/%d/%v/%d",
				r.Delivered(), a.Dropped(), eng.Fired(), r.CPU.BusyTime(), r.CPU.Dispatches())
		}
		first, second := run(), run()
		if first != second {
			t.Errorf("config %d diverged: %q vs %q", i, first, second)
		}
	}
}

// TestFairnessThreeInputs extends the round-robin check to three
// flooded interfaces.
func TestFairnessThreeInputs(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRouter(eng, Config{Mode: ModePolled, Quota: 5, InputNICs: 3})
	for i := 0; i < 3; i++ {
		gen := r.AttachGenerator(i, workload.ConstantRate{Rate: 8000, JitterFrac: 0.05}, 0)
		gen.Start()
	}
	eng.Run(sim.Time(2 * sim.Second))
	var min, max uint64
	for i, in := range r.Ins {
		processed := in.InPkts.Value() - uint64(in.RxLen())
		if i == 0 || processed < min {
			min = processed
		}
		if processed > max {
			max = processed
		}
	}
	if min == 0 || float64(max)/float64(min) > 1.15 {
		t.Fatalf("three-way round robin imbalance: min=%d max=%d", min, max)
	}
}

// TestMixedProtocolTraffic drives UDP transit, UDP-to-app, ICMP echo,
// and TCP through one router simultaneously and checks global
// conservation and validity.
func TestMixedProtocolTraffic(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRouter(eng, Config{Mode: ModePolled, Quota: 5})
	r.StartApp(AppConfig{Port: 2049,
		RecvCost: 60 * sim.Microsecond, ProcessCost: 60 * sim.Microsecond,
		ReplyBytes: 32, ReplyCost: 60 * sim.Microsecond})
	r.OpenTCPReceiver(8080)
	snd := r.AttachTCPSender(0, TCPSenderConfig{Port: 8080, MSS: 512})
	transit := r.AttachGenerator(0, workload.Poisson{Rate: 1500}, 0)
	reqs := r.AttachGeneratorTo(0, RouterIP(0), 2049, workload.Poisson{Rate: 400}, 0)
	transit.Start()
	reqs.Start()
	snd.Start()
	eng.Run(sim.Time(2 * sim.Second))

	if r.Sink.Malformed.Value() != 0 || r.RevSinks[0].Malformed.Value() != 0 {
		t.Fatalf("malformed frames: stub=%d rev=%d",
			r.Sink.Malformed.Value(), r.RevSinks[0].Malformed.Value())
	}
	if r.Delivered() == 0 {
		t.Fatal("no transit traffic forwarded")
	}
	if snd.AckedBytes() == 0 {
		t.Fatal("TCP made no progress amid mixed traffic")
	}
	if r.sockets[2049].Received.Value() == 0 {
		t.Fatal("no requests reached the app")
	}
}
