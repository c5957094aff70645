// Package stats provides the measurement primitives used by the
// simulation: monotonic counters and logarithmic-bucket histograms with
// quantile estimation.
//
// Everything here is driven by simulated time (sim.Time); nothing reads
// the wall clock, so measurements are deterministic.
package stats

import "fmt"

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

// String implements fmt.Stringer.
func (c *Counter) String() string { return fmt.Sprintf("%s=%d", c.name, c.value) }
