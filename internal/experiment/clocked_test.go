package experiment

import (
	"testing"

	"livelock/internal/sim"
)

func TestClockedPollingTradeoff(t *testing.T) {
	o := Options{Warmup: 200 * sim.Millisecond, Measure: sim.Second}
	pts, err := ClockedPollingSweep([]sim.Duration{
		100 * sim.Microsecond, 16 * sim.Millisecond,
	}, o)
	if err != nil {
		t.Fatal(err)
	}
	fast, slow := pts[0], pts[1]
	// Fast polling burns CPU even when idle ("the system spends all its
	// time polling").
	if fast.IdleOverheadPct < 5*slow.IdleOverheadPct {
		t.Fatalf("idle overhead: fast %.2f%% vs slow %.2f%%, want >>",
			fast.IdleOverheadPct, slow.IdleOverheadPct)
	}
	// Slow polling makes latency soar.
	if slow.LatencyP50 < 10*fast.LatencyP50 {
		t.Fatalf("latency: slow %v vs fast %v, want >>", slow.LatencyP50, fast.LatencyP50)
	}
	// Under sustained overload both intervals converge to the same
	// plateau: once the ring is never empty the poller never sleeps, so
	// clocked polling degenerates into continuous polling. (The §8
	// trade-off is about idle cost and latency, not saturation
	// throughput.)
	if slow.Throughput < 0.9*fast.Throughput {
		t.Fatalf("throughput: slow %.0f vs fast %.0f, want comparable at saturation",
			slow.Throughput, fast.Throughput)
	}
}
