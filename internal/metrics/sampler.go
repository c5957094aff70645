package metrics

import (
	"livelock/internal/sim"
)

// Sample is one row of the timeline: the instant it was taken and one
// value per registered instrument, in registration order.
type Sample struct {
	At     sim.Time
	Values []float64
}

// Sampler periodically snapshots a Registry into an in-memory
// time-series. It is driven entirely by the simulation engine: samples
// are taken exactly at interval edges (t = interval, 2·interval, ...),
// counters report the delta since the previous edge (the current
// reading minus the one at that edge, exact modulo 2^64, so no event is
// counted twice and none is missed), utilization instruments report
// busy-delta/interval,
// and gauges report the point-in-time value at the edge.
type Sampler struct {
	eng      *sim.Engine
	reg      *Registry
	interval sim.Duration

	prevCount []uint64       // last counter readings, per instrument
	prevBusy  []sim.Duration // last utilization readings
	lastAt    sim.Time

	samples []Sample
	arena   []float64 // chunked backing store for Sample.Values
	tick    sim.Timer
}

// NewSampler returns a sampler over reg with the given interval. The
// registry must be fully populated before Start: the instrument set at
// Start time is the schema for the whole run.
func NewSampler(eng *sim.Engine, reg *Registry, interval sim.Duration) *Sampler {
	if interval <= 0 {
		panic("metrics: non-positive sample interval")
	}
	s := &Sampler{eng: eng, reg: reg, interval: interval}
	s.tick.Init(samplerTick, s, nil)
	return s
}

// Interval returns the sampling period.
func (s *Sampler) Interval() sim.Duration { return s.interval }

// Start takes the baseline readings at the current instant and
// schedules the first sample one interval later.
func (s *Sampler) Start() {
	s.prevCount = make([]uint64, len(s.reg.instruments))
	s.prevBusy = make([]sim.Duration, len(s.reg.instruments))
	s.lastAt = s.eng.Now()
	for i, in := range s.reg.instruments {
		switch in.kind {
		case KindCounter:
			s.prevCount[i] = in.counter()
		case KindUtilization:
			s.prevBusy[i] = in.busy()
		}
	}
	s.eng.ArmAfter(&s.tick, s.interval)
}

// Stop cancels the pending sample event. Rows already recorded are
// kept; call Flush first to capture a final partial interval.
func (s *Sampler) Stop() { s.eng.Disarm(&s.tick) }

// Flush records one extra sample covering the partial interval since
// the last edge, if any simulated time has passed. Deltas and
// utilization are computed over the actual elapsed span.
func (s *Sampler) Flush() {
	if s.eng.Now() > s.lastAt {
		s.snapshot()
	}
}

// samplerTick is the periodic sampling callback (sim.Callback shape);
// with the chunked value arena below, a steady-state tick schedules and
// records without per-tick allocation.
func samplerTick(a, _ any) {
	s := a.(*Sampler)
	s.snapshot()
	s.eng.ArmAfter(&s.tick, s.interval)
}

// valuesBuf carves a row's value slice out of a chunked arena: chunks
// are allocated hundreds of rows at a time and never grown in place, so
// earlier rows keep pointing at valid memory and the per-tick
// allocation cost amortizes to (nearly) zero.
func (s *Sampler) valuesBuf(n int) []float64 {
	if n == 0 {
		return nil
	}
	if cap(s.arena)-len(s.arena) < n {
		rows := 256
		s.arena = make([]float64, 0, rows*n)
	}
	off := len(s.arena)
	s.arena = s.arena[:off+n]
	return s.arena[off : off+n : off+n]
}

func (s *Sampler) snapshot() {
	now := s.eng.Now()
	dt := now.Sub(s.lastAt)
	row := Sample{At: now, Values: s.valuesBuf(len(s.reg.instruments))}
	for i, in := range s.reg.instruments {
		switch in.kind {
		case KindCounter:
			cur := in.counter()
			row.Values[i] = float64(cur - s.prevCount[i])
			s.prevCount[i] = cur
		case KindGauge:
			row.Values[i] = in.gauge()
		case KindUtilization:
			cur := in.busy()
			if dt > 0 {
				row.Values[i] = float64(cur-s.prevBusy[i]) / float64(dt)
			}
			s.prevBusy[i] = cur
		}
	}
	s.lastAt = now
	s.samples = append(s.samples, row)
}

// Series returns the recorded timeline. The result shares no state
// with the sampler and is safe to keep after the engine is discarded.
func (s *Sampler) Series() *Series {
	out := &Series{
		Interval: s.interval,
		Names:    s.reg.Names(),
		Kinds:    make([]Kind, len(s.reg.instruments)),
		Samples:  make([]Sample, len(s.samples)),
	}
	for i, in := range s.reg.instruments {
		out.Kinds[i] = in.kind
	}
	copy(out.Samples, s.samples)
	return out
}
