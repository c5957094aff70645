package stats

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"livelock/internal/sim"
)

// Histogram accumulates durations (e.g. packet latencies) into
// logarithmically spaced buckets and answers quantile queries. Buckets
// span 1ns to ~1000s with a fixed number of sub-buckets per decade, which
// keeps quantile error under ~12% while using constant memory.
type Histogram struct {
	name   string
	counts []uint64
	n      uint64
	sum    float64
	min    sim.Duration
	max    sim.Duration
}

const (
	histSubBuckets = 20 // per decade
	histDecades    = 12 // 1ns .. 1000s
	histBuckets    = histSubBuckets*histDecades + 1
)

// NewHistogram returns an empty named histogram.
func NewHistogram(name string) *Histogram {
	return &Histogram{
		name:   name,
		counts: make([]uint64, histBuckets),
		min:    math.MaxInt64,
	}
}

// Name returns the histogram's name.
func (h *Histogram) Name() string { return h.name }

// Reset discards all observations, keeping the name and bucket layout.
// Trial harnesses call it at the end of warmup so quantiles cover only
// the measurement window, the way rate meters re-baseline their counters.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.n = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = 0
}

// logBucket is the bucket of d ≥ 1 by definition: histSubBuckets
// buckets per decade of log10(d), the last one open-ended.
func logBucket(d sim.Duration) int {
	return min(int(math.Log10(float64(d))*histSubBuckets), histBuckets-1)
}

// bucketEdges[i] is the least d ≥ 1 whose logBucket is at least i, and
// bucketHints[k] is the logBucket of 2^(k-1), the least d with
// bits.Len64(d) == k. Both are built once per process by logBucket
// itself (a binary search for each edge), so bucket returns exactly the
// index logBucket does, math.Log10's rounding on this architecture
// included, without a logarithm per observation.
var bucketEdges, bucketHints = bucketTables()

func bucketTables() (edges [histBuckets]sim.Duration, hints [64]int) {
	for i := range edges {
		lo, hi := sim.Duration(1), sim.Duration(math.MaxInt64)
		for lo < hi {
			mid := lo + (hi-lo)/2
			if logBucket(mid) >= i {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		edges[i] = lo
	}
	for k := 1; k < len(hints); k++ {
		hints[k] = logBucket(1 << (k - 1))
	}
	return edges, hints
}

// bucket returns logBucket(max(d, 1)): from the bucket of d's power of
// two it steps up past every edge at or below d, at most seven steps (a
// power of two spans 20·log10(2) ≈ 6 buckets).
func bucket(d sim.Duration) int {
	if d < 1 {
		return 0
	}
	i := bucketHints[bits.Len64(uint64(d))]
	for i+1 < histBuckets && d >= bucketEdges[i+1] {
		i++
	}
	return i
}

// bucketUpper returns the upper bound of bucket i.
func bucketUpper(i int) sim.Duration {
	return sim.Duration(math.Pow(10, float64(i+1)/histSubBuckets))
}

// Observe records one duration.
func (h *Histogram) Observe(d sim.Duration) {
	h.counts[bucket(d)]++
	h.n++
	h.sum += float64(d)
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Mean returns the arithmetic mean, or 0 with no observations.
func (h *Histogram) Mean() sim.Duration {
	if h.n == 0 {
		return 0
	}
	return sim.Duration(h.sum / float64(h.n))
}

// Min returns the smallest observation, or 0 with no observations.
func (h *Histogram) Min() sim.Duration {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation.
func (h *Histogram) Max() sim.Duration { return h.max }

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1) based
// on bucket boundaries. With no observations it returns 0.
func (h *Histogram) Quantile(q float64) sim.Duration {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.n)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			u := bucketUpper(i)
			if u > h.max {
				u = h.max
			}
			return u
		}
	}
	return h.max
}

// String renders a one-line summary.
func (h *Histogram) String() string {
	if h.n == 0 {
		return fmt.Sprintf("%s: no samples", h.name)
	}
	return fmt.Sprintf("%s: n=%d min=%v mean=%v p50=%v p99=%v max=%v",
		h.name, h.n, h.Min(), h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.max)
}

// Render returns a multi-line ASCII bar rendering of the non-empty
// buckets, for trace/debug output.
func (h *Histogram) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", h.String())
	if h.n == 0 {
		return b.String()
	}
	var peak uint64
	for _, c := range h.counts {
		if c > peak {
			peak = c
		}
	}
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		bar := int(float64(c) / float64(peak) * 40)
		fmt.Fprintf(&b, "  <=%-12v %8d %s\n", bucketUpper(i), c, strings.Repeat("#", bar))
	}
	return b.String()
}
