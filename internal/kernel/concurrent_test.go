package kernel

import (
	"sync"
	"testing"

	"livelock/internal/sim"
)

// TestRunTrialConcurrent is the parallel executor's independence proof:
// every RunTrial constructs its own engine, router, and packet pool, so
// concurrent trials must neither race (caught under `go test -race`) nor
// perturb each other's results. Each configuration is run several times
// concurrently and all repetitions must be bit-identical.
func TestRunTrialConcurrent(t *testing.T) {
	configs := []Config{
		{Mode: ModeUnmodified},
		{Mode: ModeUnmodified, Screend: true, ScreendRules: 8},
		{Mode: ModePolledCompat},
		{Mode: ModePolled, Quota: 5},
		{Mode: ModePolled, Quota: 10, Screend: true, Feedback: true},
		{Mode: ModePolled, Quota: 5, UserProcess: true, CycleLimitThreshold: 0.5},
	}
	const reps = 3
	results := make([][]TrialResult, len(configs))
	var wg sync.WaitGroup
	for i, cfg := range configs {
		cfg.Seed = 7
		results[i] = make([]TrialResult, reps)
		for j := 0; j < reps; j++ {
			wg.Add(1)
			go func(i, j int, cfg Config) {
				defer wg.Done()
				res, err := RunTrial(cfg, 6000, 150*sim.Millisecond, 500*sim.Millisecond)
				if err != nil {
					t.Error(err)
				}
				results[i][j] = res
			}(i, j, cfg)
		}
	}
	wg.Wait()
	for i := range results {
		for j := 1; j < reps; j++ {
			if results[i][j] != results[i][0] {
				t.Errorf("config %d: concurrent rep %d diverged:\n  %+v\nvs\n  %+v",
					i, j, results[i][j], results[i][0])
			}
		}
	}
}
