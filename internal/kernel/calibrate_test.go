package kernel

import (
	"fmt"
	"testing"

	"livelock/internal/sim"
)

// quickTrial runs a short calibration trial.
func quickTrial(t *testing.T, cfg Config, rate float64) TrialResult {
	t.Helper()
	return mustTrial(t, cfg, rate, 500*sim.Millisecond, 2*sim.Second)
}

// TestCalibrationSweep prints the throughput curves for the main kernel
// configurations; run with -v to inspect calibration. It asserts only
// loose shape properties — precise anchors are asserted in the dedicated
// tests below.
func TestCalibrationSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep is slow")
	}
	rates := []float64{1000, 2000, 3000, 4000, 5000, 6000, 8000, 10000, 12000}
	configs := []struct {
		name string
		cfg  Config
	}{
		{"unmod", Config{Mode: ModeUnmodified}},
		{"unmod+screend", Config{Mode: ModeUnmodified, Screend: true}},
		{"polled q5", Config{Mode: ModePolled, Quota: 5}},
		{"polled q=inf", Config{Mode: ModePolled, Quota: -1}},
		{"polled+scr nofb", Config{Mode: ModePolled, Quota: 5, Screend: true}},
		{"polled+scr fb", Config{Mode: ModePolled, Quota: 5, Screend: true, Feedback: true}},
	}
	for _, c := range configs {
		line := c.name + ":"
		for _, rate := range rates {
			res := quickTrial(t, c.cfg, rate)
			line += fmt.Sprintf(" %5.0f", res.OutputRate)
		}
		t.Log(line)
	}
}
