package kernel

import (
	"strings"
	"testing"

	"livelock/internal/prof"
	"livelock/internal/prov"
	"livelock/internal/sim"
	"livelock/internal/workload"
)

// TestCycleConservation is the profiler's analogue of packet
// conservation: in every kernel mode, under every built-in fault
// scenario, the cost-center ledger must partition CPU time exactly —
// Σ center cycles == busy cycles, busy + idle == elapsed — and the
// per-packet invested cycles can never exceed what the centers were
// charged.
func TestCycleConservation(t *testing.T) {
	modes := []struct {
		name string
		cfg  Config
	}{
		{"unmodified", Config{Mode: ModeUnmodified}},
		{"unmodified-screend", Config{Mode: ModeUnmodified, Screend: true}},
		{"polled-compat", Config{Mode: ModePolledCompat, Quota: 5}},
		{"polled-feedback", Config{Mode: ModePolled, Quota: 10, Screend: true, Feedback: true}},
	}
	for _, m := range modes {
		for _, sc := range faultScenarios {
			t.Run(m.name+"/"+sc.name, func(t *testing.T) {
				cfg := m.cfg
				cfg.Seed = 7
				cfg.Fault = sc.cfg
				cfg.Profile = prof.New()
				eng := sim.NewEngine()
				r := NewRouter(eng, cfg)
				gen := r.AttachGenerator(0, workload.ConstantRate{Rate: 6000, JitterFrac: 0.05}, 0)
				gen.Start()
				eng.Run(sim.Time(sim.Second))
				gen.Stop()
				eng.RunFor(500 * sim.Millisecond) // drain
				if err := r.Audit(gen.Sent.Value()); err != nil {
					t.Fatalf("packet ledger unbalanced: %v", err)
				}
				if err := r.AuditCycles(); err != nil {
					t.Fatalf("cycle ledger unbalanced: %v", err)
				}
				p := cfg.Profile
				// After a full drain every provenance record has reached a
				// terminal verdict: nothing still live.
				if p.Live() != 0 {
					t.Fatalf("%d provenance records leaked", p.Live())
				}
				attributed := p.UsefulCycles() + p.WastedCycles()
				if attributed == 0 {
					t.Fatal("profiler attributed no cycles")
				}
				// Per-packet invested cycles are a subset of the center
				// charges (dispatch overheads, clock ticks, the spinner and
				// poll machinery are center-only).
				var centerTotal sim.Duration
				for ct := prov.Center(0); ct < prov.NumCenters; ct++ {
					centerTotal += r.CPU.CenterTime(ct)
					per := p.UsefulByCenter(ct) + p.WastedByCenter(ct)
					if per > r.CPU.CenterTime(ct) {
						t.Errorf("center %v: invested %v > charged %v", ct, per, r.CPU.CenterTime(ct))
					}
				}
				if centerTotal != r.CPU.BusyTime() {
					t.Errorf("Σ centers %v != busy %v", centerTotal, r.CPU.BusyTime())
				}
				if f := p.WastedFrac(); f < 0 || f > 1 {
					t.Errorf("WastedFrac = %v, want [0,1]", f)
				}
			})
		}
	}
}

// TestWastedWorkRegression pins the paper's core qualitative claim in
// profiler terms: at overload, the unmodified kernel burns most of its
// packet cycles on packets it later drops (work invested at device IPL,
// thrown away at ipintrq), while the polled kernel — which drops early,
// in the ring, before investing CPU — wastes almost nothing.
func TestWastedWorkRegression(t *testing.T) {
	run := func(cfg Config) float64 {
		cfg.Seed = 3
		cfg.Screend = true
		cfg.Profile = prof.New()
		res := mustTrial(t, cfg, 12000, 500*sim.Millisecond, sim.Second)
		if res.OutputRate < 0 {
			t.Fatal("negative output rate")
		}
		return res.WastedFrac
	}
	unmod := run(Config{Mode: ModeUnmodified})
	polled := run(Config{Mode: ModePolled, Quota: 10, Feedback: true})
	t.Logf("wasted-work fraction at 12k pkt/s: unmodified=%.3f polled=%.3f", unmod, polled)
	if unmod < 0.5 {
		t.Errorf("unmodified kernel wasted-frac = %.3f at overload, want > 0.5", unmod)
	}
	if polled > 0.2 {
		t.Errorf("polled+feedback kernel wasted-frac = %.3f at overload, want < 0.2", polled)
	}
	if unmod <= polled {
		t.Errorf("unmodified wasted-frac (%.3f) must exceed polled (%.3f)", unmod, polled)
	}
}

// TestDropProvenance checks the drop table answers the question the
// counters cannot: which stage killed the packet, and how many cycles
// had already been invested when it died.
func TestDropProvenance(t *testing.T) {
	cfg := Config{Mode: ModeUnmodified, Screend: true, Seed: 1, Profile: prof.New()}
	eng := sim.NewEngine()
	r := NewRouter(eng, cfg)
	gen := r.AttachGenerator(0, workload.ConstantRate{Rate: 9000}, 0)
	gen.Start()
	eng.Run(sim.Time(sim.Second))
	gen.Stop()
	eng.RunFor(500 * sim.Millisecond)

	p := cfg.Profile
	n, inv := p.DropCount(prov.ReasonIPIntrQFull), p.DropInvested(prov.ReasonIPIntrQFull)
	if n == 0 {
		t.Fatal("overloaded unmodified kernel recorded no ipintrq drops")
	}
	// Every ipintrq drop happened after device-IPL work: invested cycles
	// must be positive — that is the §6.3 waste this table exists to show.
	if inv == 0 {
		t.Fatal("ipintrq drops recorded zero invested cycles")
	}
	var sb strings.Builder
	if err := p.WriteDropTable(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "ipintrq-full") {
		t.Fatalf("drop table missing ipintrq-full:\n%s", sb.String())
	}

	var folded strings.Builder
	if err := p.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"pkt;wasted;rx-intr ", "drop;ipintrq-full "} {
		if !strings.Contains(folded.String(), want) {
			t.Fatalf("folded output missing %q:\n%s", want, folded.String())
		}
	}
}

// TestLivelockDetector drives the unmodified kernel into livelock and
// requires the online detector to diagnose it: wasted work accumulating
// while deliveries stall.
func TestLivelockDetector(t *testing.T) {
	cfg := Config{Mode: ModeUnmodified, Screend: true, Seed: 1, Profile: prof.New()}
	res := mustTimeline(t, cfg, 10000, TimelineOptions{RunFor: 2 * sim.Second})
	p := res.Profile
	if p == nil {
		t.Fatal("no profile attached")
	}
	if !p.Livelocked() {
		t.Error("detector did not flag livelock in the unmodified kernel at 10k pkt/s")
	}
	diags := p.Diagnoses()
	if len(diags) == 0 {
		t.Fatal("no diagnoses emitted")
	}
	if !diags[0].Livelocked {
		t.Error("first diagnosis should be the livelock onset")
	}

	// The polled kernel at the same load keeps delivering: no diagnosis.
	cfg2 := Config{Mode: ModePolled, Quota: 10, Screend: true, Feedback: true, Seed: 1, Profile: prof.New()}
	res2 := mustTimeline(t, cfg2, 10000, TimelineOptions{RunFor: 2 * sim.Second})
	if res2.Profile.Livelocked() {
		t.Error("polled kernel flagged as livelocked")
	}
}
