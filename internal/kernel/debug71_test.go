package kernel

import (
	"fmt"
	"testing"

	"livelock/internal/sim"
)

// TestDebugFig71 prints the user-CPU-availability curves for several
// cycle-limit thresholds; diagnostic only (run with -v).
func TestDebugFig71(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	rates := []float64{0, 1000, 2000, 3000, 4000, 5000, 6000, 8000, 10000}
	for _, th := range []float64{0.25, 0.50, 0.75, 1.0} {
		line := fmt.Sprintf("th=%3.0f%%:", th*100)
		for _, rate := range rates {
			cfg := Config{
				Mode: ModePolled, Quota: 5,
				CycleLimitThreshold: th,
				UserProcess:         true,
			}
			res := mustTrial(t, cfg, rate, 500*sim.Millisecond, 2*sim.Second)
			line += fmt.Sprintf(" %4.1f", res.UserCPUFrac*100)
		}
		t.Log(line)
	}
}
