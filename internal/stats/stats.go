// Package stats provides the measurement primitives used by the
// simulation: monotonic counters, windowed rate meters, time-weighted
// gauges, and logarithmic-bucket histograms with quantile estimation.
//
// Everything here is driven by simulated time (sim.Time); nothing reads
// the wall clock, so measurements are deterministic.
package stats

import (
	"fmt"

	"livelock/internal/sim"
)

// Counter is a monotonically non-decreasing event count, analogous to the
// interface counters the paper samples with netstat ("Opkts").
type Counter struct {
	name  string
	value uint64
}

// NewCounter returns a named counter starting at zero.
func NewCounter(name string) *Counter { return &Counter{name: name} }

// Name returns the counter's name.
func (c *Counter) Name() string { return c.name }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.value += n }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.value++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.value }

// Delta returns the events counted since a previous reading prev.
// Because counts and the subtraction are both uint64, the result is
// correct modulo 2^64 even if the counter has wrapped between the two
// readings — the property periodic samplers rely on at window
// boundaries: consecutive Delta calls with chained readings partition
// the event stream exactly (no double-count, no gap).
func (c *Counter) Delta(prev uint64) uint64 { return c.value - prev }

// String implements fmt.Stringer.
func (c *Counter) String() string { return fmt.Sprintf("%s=%d", c.name, c.value) }

// TimeWeighted tracks the time-weighted average of a piecewise-constant
// value, e.g. queue occupancy.
type TimeWeighted struct {
	value     float64
	since     sim.Time
	weightSum float64 // integral of value dt
	total     sim.Duration
	max       float64
}

// NewTimeWeighted returns a tracker with initial value v at instant now.
func NewTimeWeighted(now sim.Time, v float64) *TimeWeighted {
	return &TimeWeighted{value: v, since: now, max: v}
}

// Set records that the value changed to v at instant now.
func (w *TimeWeighted) Set(now sim.Time, v float64) {
	dt := now.Sub(w.since)
	if dt > 0 {
		w.weightSum += w.value * dt.Seconds()
		w.total += dt
	}
	w.value = v
	w.since = now
	if v > w.max {
		w.max = v
	}
}

// Mean returns the time-weighted mean up to instant now.
func (w *TimeWeighted) Mean(now sim.Time) float64 {
	dt := now.Sub(w.since)
	sum, total := w.weightSum, w.total
	if dt > 0 {
		sum += w.value * dt.Seconds()
		total += dt
	}
	if total <= 0 {
		return w.value
	}
	return sum / total.Seconds()
}

// Max returns the maximum value observed.
func (w *TimeWeighted) Max() float64 { return w.max }

// Value returns the current value.
func (w *TimeWeighted) Value() float64 { return w.value }
