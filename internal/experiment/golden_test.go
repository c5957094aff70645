package experiment

import (
	"math"
	"testing"

	"livelock/internal/kernel"
	"livelock/internal/sim"
)

// TestGoldenAnchors pins the calibration anchors documented in
// EXPERIMENTS.md so that any cost-model or scheduling change that moves
// the reproduced numbers is caught here, with the documented values in
// one place. Tolerances are ±4% (trial windows are shorter than the
// documentation runs).
func TestGoldenAnchors(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is slow")
	}
	const warmup = 500 * sim.Millisecond
	const measure = 2 * sim.Second

	within := func(name string, got, want, tolFrac float64) {
		t.Helper()
		if math.Abs(got-want) > tolFrac*want {
			t.Errorf("%s = %.1f, documented %.1f (±%.0f%%)", name, got, want, tolFrac*100)
		}
	}
	trial := func(cfg kernel.Config, rate float64) kernel.TrialResult {
		t.Helper()
		res, err := kernel.RunTrial(cfg, rate, warmup, measure)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// Figure 6-1 anchors.
	within("unmodified @4999", trial(kernel.Config{Mode: kernel.ModeUnmodified}, 4999).OutputRate, 4593, 0.04)
	within("unmodified @12000", trial(kernel.Config{Mode: kernel.ModeUnmodified}, 12000).OutputRate, 1146, 0.04)
	within("unmod+screend @2000", trial(kernel.Config{Mode: kernel.ModeUnmodified, Screend: true}, 2000).OutputRate, 1846, 0.04)
	if got := trial(kernel.Config{Mode: kernel.ModeUnmodified, Screend: true}, 5999).OutputRate; got > 50 {
		t.Errorf("unmod+screend @5999 = %.1f, documented livelock (~0)", got)
	}

	// Figure 6-3 anchors.
	within("polled q5 @12000", trial(kernel.Config{Mode: kernel.ModePolled, Quota: 5}, 12000).OutputRate, 4896, 0.04)
	if got := trial(kernel.Config{Mode: kernel.ModePolled, Quota: -1}, 8000).OutputRate; got > 100 {
		t.Errorf("polled no-quota @8000 = %.1f, documented collapse (~0)", got)
	}

	// Figure 6-4 anchor.
	within("polled+scr+fb @12000",
		trial(kernel.Config{Mode: kernel.ModePolled, Quota: 10, Screend: true, Feedback: true}, 12000).OutputRate,
		2068, 0.04)

	// Figure 7-1 anchors (user CPU percentage).
	for _, a := range []struct {
		th   float64
		want float64
	}{{0.25, 64.7}, {0.50, 35.9}, {0.75, 16.7}} {
		cfg := kernel.Config{Mode: kernel.ModePolled, Quota: 5,
			UserProcess: true, CycleLimitThreshold: a.th}
		got := trial(cfg, 9999).UserCPUFrac * 100
		within("fig7-1 user%", got, a.want, 0.04)
	}
	idle := trial(kernel.Config{Mode: kernel.ModePolled, Quota: 5,
		UserProcess: true, CycleLimitThreshold: 0.25}, 0).UserCPUFrac * 100
	within("fig7-1 idle baseline", idle, 94.0, 0.02)
}
