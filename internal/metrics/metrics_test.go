package metrics

import (
	"encoding/json"
	"strings"
	"testing"

	"livelock/internal/sim"
	"livelock/internal/stats"
)

// TestRegistryDuplicateAndEmptyNames: registration cannot fail, so a
// duplicate or empty name, like a nil histogram, panics without
// touching the registry.
func TestRegistryDuplicateAndEmptyNames(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("a", func() uint64 { return 0 })
	for name, register := range map[string]func(){
		"duplicate":      func() { reg.Gauge("a", func() float64 { return 0 }) },
		"empty":          func() { reg.Gauge("", func() float64 { return 0 }) },
		"nil histogram":  func() { reg.Histogram("h", nil) },
		"duplicate util": func() { reg.Utilization("a", nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s registration did not panic", name)
				}
			}()
			register()
		}()
	}
	if reg.Len() != 1 {
		t.Fatalf("failed registrations mutated the registry: Len = %d", reg.Len())
	}
}

func TestRegistryNilCounterIsZeroColumn(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("absent", nil)
	in := reg.Lookup("absent")
	if in == nil || in.Kind() != KindCounter {
		t.Fatalf("Lookup = %v", in)
	}
	if v := in.counter(); v != 0 {
		t.Fatalf("zero column reads %d", v)
	}
}

// TestRegistryNilSourceIsZeroColumn: every kind renders a nil source as
// a constant-zero column of that kind, the rule that lets an absent
// subsystem register its columns once, in the same place as a present
// one.
func TestRegistryNilSourceIsZeroColumn(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("c", nil)
	reg.Gauge("g", nil)
	reg.Utilization("u", nil)
	if in := reg.Lookup("c"); in.Kind() != KindCounter || in.counter() != 0 {
		t.Errorf("counter column: kind %v", in.Kind())
	}
	if in := reg.Lookup("g"); in.Kind() != KindGauge || in.gauge() != 0 {
		t.Errorf("gauge column: kind %v", in.Kind())
	}
	if in := reg.Lookup("u"); in.Kind() != KindUtilization || in.busy() != 0 {
		t.Errorf("utilization column: kind %v", in.Kind())
	}
}

func TestRegistryOrderIsRegistrationOrder(t *testing.T) {
	reg := NewRegistry()
	for _, n := range []string{"z", "a", "m"} {
		reg.Counter(n, nil)
	}
	got := reg.Names()
	want := []string{"z", "a", "m"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names = %v, want %v", got, want)
		}
	}
}

func TestRegistryHistogramExpansion(t *testing.T) {
	reg := NewRegistry()
	h := stats.NewHistogram("lat")
	reg.Histogram("lat", h)
	for _, name := range []string{"lat.count", "lat.p50", "lat.p99"} {
		if reg.Lookup(name) == nil {
			t.Fatalf("missing derived instrument %q", name)
		}
	}
	h.Observe(2 * sim.Millisecond)
	if got := reg.Lookup("lat.count").counter(); got != 1 {
		t.Fatalf("lat.count = %d", got)
	}
	if p50 := reg.Lookup("lat.p50").gauge(); p50 <= 0 {
		t.Fatalf("lat.p50 = %v", p50)
	}
}

// TestSamplerWindowBoundaries pins the sampler's edge semantics: samples
// are taken exactly at interval multiples, and counter events partition
// into windows with no double-count — an event landing exactly on an
// edge is counted in precisely one window.
func TestSamplerWindowBoundaries(t *testing.T) {
	eng := sim.NewEngine()
	reg := NewRegistry()
	c := stats.NewCounter("ev")
	reg.Counter("ev", c)

	// Events at 5ms, 10ms, and 15ms. The 10ms increment is scheduled
	// before the sampler starts, so it fires before the 10ms sample
	// (FIFO tie-break) and belongs to window 1.
	eng.After(5*sim.Millisecond, c.Inc)
	eng.After(10*sim.Millisecond, c.Inc)
	eng.After(15*sim.Millisecond, c.Inc)

	s := NewSampler(eng, reg, 10*sim.Millisecond)
	s.Start()
	eng.Run(sim.Time(20 * sim.Millisecond))
	series := s.Series()

	if len(series.Samples) != 2 {
		t.Fatalf("samples = %d, want 2", len(series.Samples))
	}
	for i, wantAt := range []sim.Time{sim.Time(10 * sim.Millisecond), sim.Time(20 * sim.Millisecond)} {
		if series.Samples[i].At != wantAt {
			t.Fatalf("sample %d at %v, want %v", i, series.Samples[i].At, wantAt)
		}
	}
	if got := series.Samples[0].Values[0]; got != 2 {
		t.Fatalf("window 1 delta = %v, want 2 (5ms and 10ms events)", got)
	}
	if got := series.Samples[1].Values[0]; got != 1 {
		t.Fatalf("window 2 delta = %v, want 1 (15ms event)", got)
	}
	var sum float64
	for _, smp := range series.Samples {
		sum += smp.Values[0]
	}
	if uint64(sum) != c.Value() {
		t.Fatalf("windows sum to %v, counter holds %d", sum, c.Value())
	}
}

func TestSamplerUtilizationAndGauge(t *testing.T) {
	eng := sim.NewEngine()
	reg := NewRegistry()
	var busy sim.Duration
	var depth float64
	reg.Utilization("util", func() sim.Duration { return busy })
	reg.Gauge("depth", func() float64 { return depth })
	// 4ms of busy time in the first 10ms window; depth changes mid-window
	// must be invisible (gauges are point-in-time at the edge).
	eng.After(3*sim.Millisecond, func() { busy += 4 * sim.Millisecond; depth = 99 })
	eng.After(7*sim.Millisecond, func() { depth = 7 })

	s := NewSampler(eng, reg, 10*sim.Millisecond)
	s.Start()
	eng.Run(sim.Time(10 * sim.Millisecond))
	series := s.Series()
	if len(series.Samples) != 1 {
		t.Fatalf("samples = %d", len(series.Samples))
	}
	if got := series.Samples[0].Values[0]; got != 0.4 {
		t.Fatalf("utilization = %v, want 0.4", got)
	}
	if got := series.Samples[0].Values[1]; got != 7 {
		t.Fatalf("gauge = %v, want 7 (edge value, not mid-window 99)", got)
	}
}

func TestSamplerFlushPartialInterval(t *testing.T) {
	eng := sim.NewEngine()
	reg := NewRegistry()
	c := stats.NewCounter("ev")
	reg.Counter("ev", c)
	eng.After(12*sim.Millisecond, c.Inc)
	s := NewSampler(eng, reg, 10*sim.Millisecond)
	s.Start()
	eng.Run(sim.Time(15 * sim.Millisecond))
	s.Flush()
	series := s.Series()
	if len(series.Samples) != 2 {
		t.Fatalf("samples = %d, want full + partial", len(series.Samples))
	}
	last := series.Samples[1]
	if last.At != sim.Time(15*sim.Millisecond) || last.Values[0] != 1 {
		t.Fatalf("partial sample = %+v", last)
	}
	// A second Flush at the same instant must not duplicate the row.
	s.Flush()
	if got := len(s.Series().Samples); got != 2 {
		t.Fatalf("re-Flush grew samples to %d", got)
	}
}

func TestSeriesCSVExact(t *testing.T) {
	series := &Series{
		Interval: 10 * sim.Millisecond,
		Names:    []string{"ev", "depth", "util"},
		Kinds:    []Kind{KindCounter, KindGauge, KindUtilization},
		Samples: []Sample{
			{At: sim.Time(10 * sim.Millisecond), Values: []float64{3, 1.5, 0.25}},
			{At: sim.Time(20 * sim.Millisecond), Values: []float64{0, 0, 1}},
		},
	}
	var b strings.Builder
	if err := series.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "time_s,ev,depth,util\n" +
		"0.010000,3,1.5,0.2500\n" +
		"0.020000,0,0,1.0000\n"
	if b.String() != want {
		t.Fatalf("CSV:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestSeriesJSONParses(t *testing.T) {
	series := &Series{
		Interval: 10 * sim.Millisecond,
		Names:    []string{"ev"},
		Kinds:    []Kind{KindCounter},
		Samples:  []Sample{{At: sim.Time(10 * sim.Millisecond), Values: []float64{3}}},
	}
	var b strings.Builder
	if err := series.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		IntervalS   float64 `json:"interval_s"`
		Instruments []struct {
			Name string `json:"name"`
			Kind string `json:"kind"`
		} `json:"instruments"`
		Samples []struct {
			T      float64   `json:"t"`
			Values []float64 `json:"values"`
		} `json:"samples"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("hand-rolled JSON does not parse: %v\n%s", err, b.String())
	}
	if doc.IntervalS != 0.01 || len(doc.Instruments) != 1 || doc.Instruments[0].Kind != "counter" {
		t.Fatalf("decoded %+v", doc)
	}
	if len(doc.Samples) != 1 || doc.Samples[0].Values[0] != 3 {
		t.Fatalf("decoded samples %+v", doc.Samples)
	}
}

func TestPerfettoTraceParses(t *testing.T) {
	series := &Series{
		Interval: 10 * sim.Millisecond,
		Names:    []string{"depth"},
		Kinds:    []Kind{KindGauge},
		Samples:  []Sample{{At: sim.Time(10 * sim.Millisecond), Values: []float64{4}}},
	}
	p := &PerfettoTrace{Series: series}
	var b strings.Builder
	if _, err := p.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v\n%s", err, b.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// Two process_name metadata events plus one counter event.
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("traceEvents = %d, want 3", len(doc.TraceEvents))
	}
	last := doc.TraceEvents[2]
	if last["ph"] != "C" || last["name"] != "depth" || last["ts"] != 10000.0 {
		t.Fatalf("counter event %v", last)
	}
}
