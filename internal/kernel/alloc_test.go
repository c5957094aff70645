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
// they must allocate nothing either.
func TestSteadyStateZeroAlloc(t *testing.T) {
	for _, tc := range steadyStateCases {
		t.Run(tc.name, func(t *testing.T) {
			eng, r := warmRouter(tc.cfg, tc.rate)
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

// TestLongRunZeroAlloc extends the steady state from milliseconds to
// seconds: after the same warmup, 10 simulated seconds allocate nothing
// (AllocsPerRun runs them once unmeasured first). Short windows cannot
// see a slowly growing backlog, such as the livelocked kernel's starved
// housekeeping task, which gets one item per clock tick and never runs
// (its identical items are run-length queued, see cpu.Task), nor a
// packet pool still growing after the warmup.
func TestLongRunZeroAlloc(t *testing.T) {
	for _, tc := range steadyStateCases {
		t.Run(tc.name, func(t *testing.T) {
			eng, r := warmRouter(tc.cfg, tc.rate)
			allocs := testing.AllocsPerRun(1, func() { eng.RunFor(10 * sim.Second) })
			if allocs != 0 {
				t.Errorf("%.0f allocations in 10 simulated seconds, want 0", allocs)
			}
			if err := r.Audit(r.Offered()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestNewRouterAllocs pins router construction's allocation count,
// which the figure sweep pays once per distinct trial: the CPU's ready
// lists and completion timer are inline in the CPU, so dispatch state
// costs construction no allocation. LIVELOCK_LOCKDEP=1 arms a Lockdep
// on the SMP router, which costs 9 more.
func TestNewRouterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation changes allocation counts")
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		max  float64
	}{
		{"unmodified", Config{Mode: ModeUnmodified}, 153},
		{"polled", Config{Mode: ModePolled, Quota: 5}, 164},
		{"polled-smp4", Config{Mode: ModePolled, Quota: 5, CPUs: 4}, 286},
	} {
		if envLockdep && tc.cfg.CPUs > 1 {
			tc.max += 9
		}
		allocs := testing.AllocsPerRun(10, func() { NewRouter(sim.NewEngine(), tc.cfg) })
		if allocs > tc.max {
			t.Errorf("%s: NewRouter makes %.0f allocations, want at most %.0f", tc.name, allocs, tc.max)
		}
	}
}

// steadyStateCases are the benchmark's three simulation workloads.
var steadyStateCases = []struct {
	name string
	cfg  Config
	rate float64
}{
	{"polled", Config{Mode: ModePolled, Quota: 5}, 4500},
	{"polled-smp4", Config{Mode: ModePolled, Quota: 5, CPUs: 4}, 14000},
	{"unmodified-screend", Config{Mode: ModeUnmodified, Screend: true}, 10000},
}

// warmRouter builds cfg's router at seed 1, offers it rate pps on
// input 0, and runs the 300 ms warmup that grows its rings, queues,
// task item slices, packet pool and the engine heap to working size.
func warmRouter(cfg Config, rate float64) (*sim.Engine, *Router) {
	cfg.Seed = 1
	eng := sim.NewEngine()
	r := NewRouter(eng, cfg)
	gen := r.AttachGenerator(0, workload.ConstantRate{Rate: rate, JitterFrac: 0.05}, 0)
	gen.Start()
	eng.Run(sim.Time(300 * sim.Millisecond))
	return eng, r
}
