package metrics

import (
	"testing"

	"livelock/internal/sim"
	"livelock/internal/stats"
)

// A sampler tick appends one row to the timeline. Row value slices come
// from a chunked arena and the engine event is pooled, so the only
// allocation left is the occasional arena chunk and samples-slice
// growth — amortized well under one object per tick.
func TestAllocsSamplerTick(t *testing.T) {
	eng := sim.NewEngine()
	reg := NewRegistry()
	c := stats.NewCounter("c")
	reg.Counter("c", c)
	reg.Gauge("g", func() float64 { return 1 })
	busy := sim.Duration(0)
	reg.Utilization("u", func() sim.Duration { return busy })

	const interval = sim.Millisecond
	s := NewSampler(eng, reg, interval)
	s.Start()
	// Warm up past the first chunk allocations.
	eng.Run(eng.Now().Add(100 * interval))

	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		busy += interval / 2
		eng.Run(eng.Now().Add(interval))
	})
	if allocs > 0.5 {
		t.Fatalf("sampler tick allocates %v objects amortized, want < 0.5", allocs)
	}
}
