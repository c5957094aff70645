package kernel

import (
	"strings"
	"testing"

	"livelock/internal/prov"
	"livelock/internal/sim"
	"livelock/internal/trace"
	"livelock/internal/workload"
)

func TestTracedLifecycle(t *testing.T) {
	tr := trace.New(1024)
	eng := sim.NewEngine()
	cfg := Config{Mode: ModePolled, Quota: 5, Trace: tr}
	r := NewRouter(eng, cfg)
	gen := r.AttachGenerator(0, workload.ConstantRate{Rate: 1000}, 5)
	gen.Start()
	eng.Run(sim.Time(100 * sim.Millisecond))

	recs := tr.Filter(1)
	if len(recs) < 4 {
		t.Fatalf("packet 1 produced only %d events: %v", len(recs), recs)
	}
	var seq []string
	for _, rec := range recs {
		seq = append(seq, rec.Text())
	}
	joined := strings.Join(seq, " | ")
	for _, want := range []string{
		"rx-ring accept",
		"poll rx processed to completion",
		"forwarded to output ifqueue",
		"handed to transmit descriptor",
		"delivered on stub Ethernet",
	} {
		if !strings.Contains(joined, want) {
			t.Fatalf("lifecycle missing %q: %s", want, joined)
		}
	}
	// Events must be time-ordered.
	for i := 1; i < len(recs); i++ {
		if recs[i].At < recs[i-1].At {
			t.Fatalf("trace out of order: %v", recs)
		}
	}
}

func TestTracedDrops(t *testing.T) {
	tr := trace.New(1 << 16)
	eng := sim.NewEngine()
	cfg := Config{Mode: ModeUnmodified, Screend: true, Trace: tr}
	r := NewRouter(eng, cfg)
	gen := r.AttachGenerator(0, workload.ConstantRate{Rate: 9000}, 0)
	gen.Start()
	eng.Run(sim.Time(500 * sim.Millisecond))
	var sawScreendDrop bool
	for _, rec := range tr.Records() {
		if strings.Contains(rec.Text(), "screend queue DROP") {
			sawScreendDrop = true
		}
	}
	if !sawScreendDrop {
		t.Error("no screend-queue drop traced under livelock load")
	}
	_ = r

	// With feedback in the polled kernel, overload drops move to the
	// cheap place: the NIC ring.
	tr2 := trace.New(1 << 16)
	eng2 := sim.NewEngine()
	cfg2 := Config{Mode: ModePolled, Quota: 10, Screend: true, Feedback: true, Trace: tr2}
	r2 := NewRouter(eng2, cfg2)
	gen2 := r2.AttachGenerator(0, workload.ConstantRate{Rate: 9000}, 0)
	gen2.Start()
	eng2.Run(sim.Time(500 * sim.Millisecond))
	var sawRingDrop bool
	for _, rec := range tr2.Records() {
		if strings.Contains(rec.Text(), "rx-ring DROP") {
			sawRingDrop = true
		}
	}
	if !sawRingDrop {
		t.Error("no ring drop traced in feedback-inhibited overload")
	}
}

// TestTraceAndProfileAgree pins what the one observation call gives by
// construction: over a whole traced and profiled run, the trace holds
// one drop record per drop the profiler counts, reason by reason, each
// under its reason's stage. The trace shows no drop whose reason maps
// to no stage (fault-plane losses), and no malformed frame a sink
// rejects (the profiler settles its ledger; the sink counts it).
func TestTraceAndProfileAgree(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"unmodified-screend/corrupt", Config{Mode: ModeUnmodified, Screend: true, Fault: faultScenarios[1].cfg}},
		{"polled-feedback/stall", Config{Mode: ModePolled, Quota: 10, Screend: true, Feedback: true, Fault: faultScenarios[3].cfg}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := mustTimeline(t, tc.cfg, 9000,
				TimelineOptions{RunFor: 300 * sim.Millisecond, TraceCap: 1 << 17, Profile: true})
			recs := res.Trace.Records()
			if uint64(len(recs)) != res.Trace.Total() {
				t.Fatalf("ring kept %d of %d records", len(recs), res.Trace.Total())
			}
			var traced [prov.NumReasons]uint64
			for _, rec := range recs {
				if rec.Reason == prov.ReasonNone {
					continue
				}
				if rec.Stage != rec.Reason.Stage() {
					t.Fatalf("drop record %v carries stage %v, its reason's is %v", rec, rec.Stage, rec.Reason.Stage())
				}
				traced[rec.Reason]++
			}
			var untraced uint64
			for d := prov.DropReason(1); d < prov.NumReasons; d++ {
				got, counted := traced[d], res.Profile.DropCount(d)
				switch {
				case d.Stage() == prov.StageNone:
					untraced += counted
					if got != 0 {
						t.Errorf("%v: %d drops traced under no stage", d, got)
					}
				case d == prov.ReasonMalformed:
					if got > counted {
						t.Errorf("%v: %d traced, profiler counted %d", d, got, counted)
					}
				case got != counted:
					t.Errorf("%v: %d traced, profiler counted %d", d, got, counted)
				}
			}
			if traced[prov.ReasonRxRingFull]+traced[prov.ReasonScreendQFull] == 0 || untraced == 0 {
				t.Fatalf("run exercised too little: traced %v, untraced fault drops %d", traced, untraced)
			}
		})
	}
}
