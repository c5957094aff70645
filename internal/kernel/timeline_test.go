package kernel

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"livelock/internal/fault"
	"livelock/internal/metrics"
	"livelock/internal/prof"
	"livelock/internal/sim"
	"livelock/internal/trace"
	"livelock/internal/workload"
)

// TestTimelineMatchesPlainRun pins that RunTimeline's instruments (the
// metrics registry and its sampler) never perturb a run: a plain traced
// and profiled router run and RunTimeline with TraceCap and Profile
// must produce identical trace records, delivered counts and
// cycle-attribution reports. lkstat's log view relies on this.
func TestTimelineMatchesPlainRun(t *testing.T) {
	const (
		keep   = 4096
		runFor = 20 * sim.Millisecond
	)
	faults := fault.Config{DropProb: 0.02, CorruptProb: 0.05, DupProb: 0.02,
		DelayProb: 0.02, IntrLossProb: 0.01}
	cases := []struct {
		name string
		cfg  Config
		rate float64
	}{
		{"unmodified+screend", Config{Mode: ModeUnmodified, Screend: true}, 9000},
		{"polled", Config{Mode: ModePolled}, 8000},
		{"compat+feedback", Config{Mode: ModePolledCompat, Feedback: true}, 12000},
		{"polled+screend+feedback", Config{Mode: ModePolled, Screend: true, Feedback: true}, 12000},
		{"polled-2cpu", Config{Mode: ModePolled, CPUs: 2}, 14000},
		{"unmodified-4cpu", Config{Mode: ModeUnmodified, CPUs: 4}, 14000},
		{"polled-4cpu-1irq", Config{Mode: ModePolled, CPUs: 4, IRQCPUs: 1}, 14000},
		{"unmodified+screend+faults", Config{Mode: ModeUnmodified, Screend: true, Fault: faults}, 6000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Quota = 5

			plain := tc.cfg
			plain.Trace = trace.New(keep)
			plain.Profile = prof.New()
			eng := sim.NewEngine()
			r := NewRouter(eng, plain)
			gen := r.AttachGenerator(0, workload.ConstantRate{Rate: tc.rate, JitterFrac: 0.05}, 0)
			gen.Start()
			eng.Run(sim.Time(runFor))
			var folded strings.Builder
			if err := r.WriteFolded(&folded); err != nil {
				t.Fatal(err)
			}

			res := mustTimeline(t, tc.cfg, tc.rate, TimelineOptions{RunFor: runFor, TraceCap: keep, Profile: true})

			if got, want := dumpTrace(t, res.Trace), dumpTrace(t, plain.Trace); got != want {
				t.Errorf("trace differs:\ntimeline: %.300s\nplain:    %.300s", got, want)
			}
			if res.Delivered != r.Delivered() {
				t.Errorf("delivered: timeline %d, plain %d", res.Delivered, r.Delivered())
			}
			if got, want := profileTables(t, res.Profile), profileTables(t, plain.Profile); got != want {
				t.Errorf("profile differs:\ntimeline:\n%s\nplain:\n%s", got, want)
			}
			if res.Folded != folded.String() {
				t.Error("folded stacks differ")
			}
		})
	}
}

func dumpTrace(t *testing.T, tr *trace.Tracer) string {
	t.Helper()
	var b bytes.Buffer
	if _, err := tr.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "total=%d", tr.Total())
	return b.String()
}

func profileTables(t *testing.T, p *prof.Profile) string {
	t.Helper()
	var b bytes.Buffer
	fmt.Fprintf(&b, "useful=%v wasted=%v\n", p.UsefulCycles(), p.WastedCycles())
	for _, write := range []func(*bytes.Buffer) error{
		func(w *bytes.Buffer) error { return p.WriteDropTable(w) },
		func(w *bytes.Buffer) error { return p.WriteDwell(w) },
		func(w *bytes.Buffer) error { return p.WriteDiagnoses(w) },
	} {
		if err := write(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// TestTimelineSchemaModeIndependent pins the promise Config.Metrics
// documents: every uniprocessor router registers the same columns in
// the same order, whatever its mode and whichever subsystems it lacks,
// so any two timelines line up column for column.
func TestTimelineSchemaModeIndependent(t *testing.T) {
	var want []string
	for _, mode := range []Mode{ModeUnmodified, ModePolledCompat, ModePolled} {
		for combo := 0; combo < 16; combo++ {
			cfg := Config{Mode: mode, Quota: 5, Metrics: metrics.NewRegistry()}
			if combo&1 != 0 {
				cfg.Screend, cfg.Feedback = true, true
			}
			if combo&2 != 0 {
				cfg.Profile = prof.New()
			}
			if combo&4 != 0 {
				cfg.Fault = fault.Config{DropProb: 0.01, ReorderProb: 0.01, StallPeriod: 10 * sim.Millisecond,
					StallDuration: sim.Millisecond}
			}
			if combo&8 != 0 {
				cfg.UserProcess = true
			}
			NewRouter(sim.NewEngine(), cfg)
			got := cfg.Metrics.Names()
			if want == nil {
				want = got
				continue
			}
			if !slices.Equal(got, want) {
				t.Errorf("%v combo %04b: %d columns differ from the first config's %d:\n got %v\nwant %v",
					mode, combo, len(got), len(want), got, want)
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("no columns registered")
	}
}
