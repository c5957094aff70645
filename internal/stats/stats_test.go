package stats

import (
	"math"
	"testing"
	"testing/quick"

	"livelock/internal/sim"
)

func TestCounter(t *testing.T) {
	c := NewCounter("pkts")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
	if c.Name() != "pkts" {
		t.Fatalf("Name = %q", c.Name())
	}
	if c.String() != "pkts=5" {
		t.Fatalf("String = %q", c.String())
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram("lat")
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Min() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for i := 1; i <= 100; i++ {
		h.Observe(sim.Duration(i) * sim.Microsecond)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Min() != sim.Microsecond {
		t.Fatalf("Min = %v", h.Min())
	}
	if h.Max() != 100*sim.Microsecond {
		t.Fatalf("Max = %v", h.Max())
	}
	mean := h.Mean()
	if mean < 48*sim.Microsecond || mean > 53*sim.Microsecond {
		t.Fatalf("Mean = %v, want ~50.5µs", mean)
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram("lat")
	for i := 1; i <= 100; i++ {
		h.Observe(sim.Duration(i) * sim.Millisecond)
	}
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.99) != 0 {
		t.Fatalf("Reset left state behind: %v", h)
	}
	// Post-reset observations must not see pre-reset extremes.
	h.Observe(5 * sim.Microsecond)
	h.Observe(9 * sim.Microsecond)
	if h.Count() != 2 {
		t.Fatalf("Count = %d after reset+2 observations", h.Count())
	}
	if h.Min() != 5*sim.Microsecond || h.Max() != 9*sim.Microsecond {
		t.Fatalf("Min/Max = %v/%v, want 5µs/9µs", h.Min(), h.Max())
	}
	if q := h.Quantile(0.99); q > 10*sim.Microsecond {
		t.Fatalf("p99 = %v still reflects pre-reset samples", q)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram("lat")
	for i := 1; i <= 10000; i++ {
		h.Observe(sim.Duration(i) * sim.Microsecond)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got := float64(h.Quantile(q))
		want := q * 10000 * float64(sim.Microsecond)
		if got < want*0.95 || got > want*1.2 {
			t.Errorf("Quantile(%v) = %v, want within [0.95,1.2]× of %v",
				q, sim.Duration(got), sim.Duration(want))
		}
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	// Property: quantiles are monotone in q and bounded by min/max.
	check := func(raw []uint32) bool {
		h := NewHistogram("p")
		for _, v := range raw {
			h.Observe(sim.Duration(v%1000000) + 1)
		}
		if len(raw) == 0 {
			return h.Quantile(0.5) == 0
		}
		prev := sim.Duration(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
			v := h.Quantile(q)
			if v < prev || v > h.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantileClamps(t *testing.T) {
	h := NewHistogram("lat")
	h.Observe(10 * sim.Microsecond)
	if h.Quantile(-1) == 0 || h.Quantile(2) == 0 {
		t.Fatal("out-of-range q should clamp, not return 0")
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram("lat")
	if s := h.Render(); s == "" {
		t.Fatal("empty render")
	}
	h.Observe(5 * sim.Microsecond)
	h.Observe(5 * sim.Microsecond)
	h.Observe(7 * sim.Millisecond)
	s := h.Render()
	if s == "" {
		t.Fatal("render of populated histogram is empty")
	}
}

// bucketByLog is the bucket formula the edge table replaced, one
// math.Log10 per observation.
func bucketByLog(d sim.Duration) int {
	if d < 1 {
		d = 1
	}
	idx := int(math.Log10(float64(d)) * float64(histSubBuckets))
	if idx < 0 {
		idx = 0
	}
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// TestBucketMatchesLogFormula checks the edge-table bucket against the
// math.Log10 formula: exhaustively over 0…3·10⁶, within ±1000 of every
// edge, within ±100 of every power of two, and at the extremes.
func TestBucketMatchesLogFormula(t *testing.T) {
	check := func(d sim.Duration) {
		if got, want := bucket(d), bucketByLog(d); got != want {
			t.Fatalf("bucket(%d) = %d, want %d", d, got, want)
		}
	}
	for d := sim.Duration(0); d <= 3_000_000; d++ {
		check(d)
	}
	// near checks c±r for 1 ≤ c, stopping at MaxInt64.
	near := func(c, r sim.Duration) {
		hi := c + min(r, math.MaxInt64-c)
		for d := c - r; ; d++ {
			check(d)
			if d == hi {
				return
			}
		}
	}
	for i, e := range bucketEdges {
		if i > 0 && e < bucketEdges[i-1] {
			t.Fatalf("edge %d (%d) below edge %d (%d)", i, e, i-1, bucketEdges[i-1])
		}
		near(e, 1000)
	}
	for k := 0; k < 63; k++ {
		near(sim.Duration(1)<<k, 100)
	}
	near(math.MaxInt64, 1000)
	for _, d := range []sim.Duration{0, -1, -1000, math.MinInt64} {
		check(d)
	}
}
