package kernel

import (
	"strings"
	"testing"

	"livelock/internal/sim"
	"livelock/internal/workload"
)

// mustTrial runs RunTrial and fails the test on an audit error.
func mustTrial(t testing.TB, cfg Config, rate float64, warmup, measure sim.Duration) TrialResult {
	t.Helper()
	res, err := RunTrial(cfg, rate, warmup, measure)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mustTimeline runs RunTimeline and fails the test on an audit error.
func mustTimeline(t testing.TB, cfg Config, rate float64, o TimelineOptions) TimelineResult {
	t.Helper()
	res, err := RunTimeline(cfg, rate, o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// leakyRouters makes every router RunTrial and RunTimeline build hold
// one pool buffer outside the accounted flow, as TestAuditDetectsLeak
// does by hand, until the test ends.
func leakyRouters(t *testing.T) {
	t.Cleanup(func() { newRouter = NewRouter })
	newRouter = func(eng *sim.Engine, cfg Config) *Router {
		r := NewRouter(eng, cfg)
		if r.Pool.Get(64) == nil {
			t.Fatal("pool exhausted")
		}
		return r
	}
}

const leakMsg = "packet conservation violated"

// TestFinishReportsLeak pins the error path of every harness: a leaked
// pool buffer makes Finish, RunTrial and RunTimeline return the audit
// error instead of panicking or reporting numbers.
func TestFinishReportsLeak(t *testing.T) {
	r := NewRouter(sim.NewEngine(), Config{Mode: ModePolled, Quota: 5, Seed: 3})
	r.AttachGenerator(0, workload.ConstantRate{Rate: 2000, JitterFrac: 0.05}, 0).Start()
	r.Measure(100*sim.Millisecond, 200*sim.Millisecond)
	leaked := r.Pool.Get(64)
	if leaked == nil {
		t.Fatal("pool exhausted")
	}
	a, err := r.Finish(100 * sim.Millisecond)
	if err == nil || !strings.Contains(err.Error(), leakMsg) {
		t.Fatalf("Finish with a leaked buffer: err = %v, want %q", err, leakMsg)
	}
	if a.Alive != 1 {
		t.Errorf("Finish accounting: alive = %d, want the 1 leaked buffer", a.Alive)
	}
	leaked.Release()
	if _, err := r.Finish(0); err != nil {
		t.Fatalf("ledger still unbalanced after release: %v", err)
	}

	leakyRouters(t)
	cfg := Config{Mode: ModeUnmodified, Seed: 3}
	if _, err := RunTrial(cfg, 2000, 50*sim.Millisecond, 100*sim.Millisecond); err == nil ||
		!strings.Contains(err.Error(), leakMsg) {
		t.Errorf("RunTrial with a leaked buffer: err = %v, want %q", err, leakMsg)
	}
	if _, err := RunTimeline(cfg, 2000, TimelineOptions{RunFor: 100 * sim.Millisecond}); err == nil ||
		!strings.Contains(err.Error(), leakMsg) {
		t.Errorf("RunTimeline with a leaked buffer: err = %v, want %q", err, leakMsg)
	}
}

// TestOfferedSumsEverySource pins Offered to the sum of every attached
// source's sent count — generators, a TCP sender and a closed-loop
// client — and shows the audit balances against it.
func TestOfferedSumsEverySource(t *testing.T) {
	r := NewRouter(sim.NewEngine(), Config{Mode: ModePolled, Quota: 5, InputNICs: 4, Seed: 5})
	gens := []*workload.Generator{
		r.AttachGenerator(0, workload.ConstantRate{Rate: 3000, JitterFrac: 0.05}, 0),
		r.AttachGenerator(1, workload.Poisson{Rate: 1000}, 0),
	}
	r.OpenTCPReceiver(8080)
	snd := r.AttachTCPSender(2, TCPSenderConfig{Port: 8080})
	client := r.AttachClient(3, ClientConfig{Port: 2049})
	for _, g := range gens {
		g.Start()
	}
	snd.Start()
	client.Start()
	r.Measure(50*sim.Millisecond, 200*sim.Millisecond)

	want := gens[0].Sent.Value() + gens[1].Sent.Value() + snd.SegmentsSent.Value() + client.Sent.Value()
	if got := r.Offered(); got != want {
		t.Errorf("Offered = %d, want %d (generators %d+%d, TCP %d, client %d)", got, want,
			gens[0].Sent.Value(), gens[1].Sent.Value(), snd.SegmentsSent.Value(), client.Sent.Value())
	}
	for name, n := range map[string]uint64{
		"generator 0": gens[0].Sent.Value(), "generator 1": gens[1].Sent.Value(),
		"TCP sender": snd.SegmentsSent.Value(), "client": client.Sent.Value(),
	} {
		if n == 0 {
			t.Errorf("%s sent nothing: the sum would not notice it missing", name)
		}
	}
	if _, err := r.Finish(50 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
}
