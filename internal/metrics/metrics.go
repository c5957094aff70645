// Package metrics is the simulation's time-series instrumentation
// layer: a named-instrument Registry, a simulated-time Sampler that
// snapshots every registered instrument on a fixed interval, and
// exporters for wide CSV/JSON time-series and Chrome/Perfetto
// trace-event JSON.
//
// Where the stats package provides the measurement *primitives*
// (counters, gauges, histograms) and the kernel reports end-of-run
// aggregates, this package makes the *transient* visible: livelock
// onset inside a single run — the ipintrq depth pegging at its limit,
// the delivered-rate delta collapsing to zero while interrupt-level CPU
// utilization saturates — shows up as adjacent rows of one timeline.
//
// Everything is driven by simulated time and registration order is the
// column order, so all output is deterministic: identical
// configurations produce byte-identical timelines regardless of host,
// wall-clock speed, or how many trials run concurrently.
package metrics

import (
	"fmt"

	"livelock/internal/sim"
	"livelock/internal/stats"
)

// Kind classifies how the Sampler turns an instrument into a column.
type Kind int

// Instrument kinds.
const (
	// KindCounter is a monotonic event count; the sampler records the
	// per-interval delta (events during the interval, no double-count).
	KindCounter Kind = iota
	// KindGauge is a point-in-time value sampled at the interval edge
	// (queue depth, ring occupancy, gate state).
	KindGauge
	// KindUtilization is a cumulative busy duration; the sampler
	// records delta/interval, a fraction of the interval in [0, 1].
	KindUtilization
)

// String names the kind (used by the JSON exporter).
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindUtilization:
		return "utilization"
	default:
		return fmt.Sprintf("kind%d", int(k))
	}
}

// Instrument is one registered metric.
type Instrument struct {
	name string
	kind Kind

	counter func() uint64       // KindCounter
	gauge   func() float64      // KindGauge
	busy    func() sim.Duration // KindUtilization
}

// Name returns the instrument's registered name.
func (i *Instrument) Name() string { return i.name }

// Kind returns how the sampler treats the instrument.
func (i *Instrument) Kind() Kind { return i.kind }

// Registry is an ordered set of named instruments. Registration order
// is the schema: the Sampler emits columns in exactly this order, so a
// deterministic construction sequence yields a deterministic timeline.
// Registration cannot fail: an empty or duplicate name panics.
type Registry struct {
	instruments []*Instrument
	byName      map[string]*Instrument
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Instrument)}
}

// Len returns the number of registered instruments.
func (r *Registry) Len() int { return len(r.instruments) }

// Names returns the instrument names in registration order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.instruments))
	for i, in := range r.instruments {
		out[i] = in.name
	}
	return out
}

// Lookup returns the instrument registered under name, or nil.
func (r *Registry) Lookup(name string) *Instrument { return r.byName[name] }

// register appends in to the schema. An empty or duplicate name is a
// programming bug in the registering code, so it panics.
func (r *Registry) register(in *Instrument) {
	if in.name == "" {
		panic("metrics: empty instrument name")
	}
	if _, dup := r.byName[in.name]; dup {
		panic(fmt.Sprintf("metrics: duplicate instrument %q", in.name))
	}
	r.byName[in.name] = in
	r.instruments = append(r.instruments, in)
}

// CounterFunc registers a monotonic counter read through fn; a nil fn
// registers a constant-zero column.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	if fn == nil {
		fn = func() uint64 { return 0 }
	}
	r.register(&Instrument{name: name, kind: KindCounter, counter: fn})
}

// Counter registers a stats.Counter under name. A nil counter registers
// a constant-zero column, as a nil source does for every kind: it keeps
// the schema identical across kernel modes that lack the underlying
// object (e.g. ipintrq drops in the polled kernel).
func (r *Registry) Counter(name string, c *stats.Counter) {
	if c == nil {
		r.CounterFunc(name, nil)
		return
	}
	r.CounterFunc(name, c.Value)
}

// Gauge registers a point-in-time value read through fn; a nil fn
// registers a constant-zero column.
func (r *Registry) Gauge(name string, fn func() float64) {
	if fn == nil {
		fn = func() float64 { return 0 }
	}
	r.register(&Instrument{name: name, kind: KindGauge, gauge: fn})
}

// Utilization registers a cumulative busy-time reading; the sampler
// reports the fraction of each interval it advanced by. A nil fn
// registers a constant-zero column.
func (r *Registry) Utilization(name string, fn func() sim.Duration) {
	if fn == nil {
		fn = func() sim.Duration { return 0 }
	}
	r.register(&Instrument{name: name, kind: KindUtilization, busy: fn})
}

// Histogram adopts a stats.Histogram as three derived instruments:
// <name>.count (a counter of observations, sampled as per-interval
// deltas) plus <name>.p50 and <name>.p99 quantile gauges over all
// observations so far. A nil histogram panics.
func (r *Registry) Histogram(name string, h *stats.Histogram) {
	if h == nil {
		panic(fmt.Sprintf("metrics: nil histogram for %q", name))
	}
	r.CounterFunc(name+".count", h.Count)
	r.Gauge(name+".p50", func() float64 {
		return float64(h.Quantile(0.50)) / float64(sim.Second)
	})
	r.Gauge(name+".p99", func() float64 {
		return float64(h.Quantile(0.99)) / float64(sim.Second)
	})
}
