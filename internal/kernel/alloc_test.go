package kernel

import (
	"testing"

	"livelock/internal/sim"
	"livelock/internal/workload"
)

// TestSteadyStateZeroAlloc pins the allocation-free steady state of
// every kernel mode: once a router has warmed up (rings, queues, task
// item slices and the engine heap grown to their working sizes), a
// simulated window of traffic allocates nothing. Every work item posted
// per packet, per interrupt or per tick is a func value bound at
// construction, and per-item state travels in its owner's fields (see
// DESIGN.md §11). Each window ends in the audits the host-cost
// benchmark runs after every window (Offered, Audit, AuditCycles), so
// they must allocate nothing either. The configurations and rates are
// the benchmark's three simulation workloads.
func TestSteadyStateZeroAlloc(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		rate float64
	}{
		{"polled", Config{Mode: ModePolled, Quota: 5}, 4500},
		{"polled-smp4", Config{Mode: ModePolled, Quota: 5, CPUs: 4}, 14000},
		{"unmodified-screend", Config{Mode: ModeUnmodified, Screend: true}, 10000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Seed = 1
			eng := sim.NewEngine()
			r := NewRouter(eng, cfg)
			gen := r.AttachGenerator(0, workload.ConstantRate{Rate: tc.rate, JitterFrac: 0.05}, 0)
			gen.Start()
			eng.Run(sim.Time(300 * sim.Millisecond))
			received := r.Ins[0].InPkts.Value()
			allocs := testing.AllocsPerRun(10, func() {
				eng.RunFor(10 * sim.Millisecond)
				if err := r.Audit(r.Offered()); err != nil {
					t.Fatal(err)
				}
				if err := r.AuditCycles(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%.1f allocations per 10 ms simulated window, want 0", allocs)
			}
			if r.Ins[0].InPkts.Value() == received {
				t.Fatal("no frame received: the windows measured no packet work")
			}
		})
	}
}
