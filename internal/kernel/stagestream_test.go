package kernel

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"

	"livelock/internal/sim"
)

// stageStreamPath pins, per configuration, the SHA-256 of a run's whole
// per-packet stage stream: every trace record (time, packet, stage or
// drop) and the profiler's report (cycle ledgers, drop table, per-stage
// dwell, diagnoses, folded stacks). It is stricter than the sampled
// timelines — a same-instant swap of two records on one packet's path
// moves it — yet independent of how the engine orders events no packet
// observes. Regenerate after an intentional model change with
//
//	REGEN_GOLDEN=1 LIVELOCK_INVARIANCE=1 go test -run TestStageStreamDigests ./internal/kernel
const stageStreamPath = "testdata/stage-stream-digests.json"

// stageStreamCap is the trace ring size: large enough to hold every
// record of the longest pinned run, which the test asserts.
const stageStreamCap = 1 << 17

// stageStreamRun is one pinned configuration.
type stageStreamRun struct {
	key    string
	cfg    Config
	rate   float64
	runFor sim.Duration
}

// stageStreamRuns are the pinned configurations: every timeline-digest
// arm (smpModes × faultScenarios × 1/2/4 CPUs, at the same seed, rate
// and length), and the three single-router perfbench workloads at
// seed 1 for one simulated second.
func stageStreamRuns() []stageStreamRun {
	var runs []stageStreamRun
	for _, m := range smpModes {
		for _, sc := range faultScenarios {
			for _, n := range []int{1, 2, 4} {
				cfg := m.cfg
				cfg.Seed = 7
				cfg.Fault = sc.cfg
				cfg.CPUs = n
				key := fmt.Sprintf("%s/cpus%d/%s", m.name, n, sc.name)
				runs = append(runs, stageStreamRun{key, cfg, 6000, 300 * sim.Millisecond})
			}
		}
	}
	return append(runs,
		stageStreamRun{"fwd-polled", Config{Mode: ModePolled, Quota: 5, Seed: 1}, 4500, sim.Second},
		stageStreamRun{"livelock-unmodified", Config{Mode: ModeUnmodified, Screend: true, Seed: 1}, 10000, sim.Second},
		stageStreamRun{"smp4-polled", Config{Mode: ModePolled, Quota: 5, CPUs: 4, Seed: 1}, 14000, sim.Second},
	)
}

// stageStreamDigest runs one configuration traced and profiled and
// hashes its whole stage stream and profile report.
func stageStreamDigest(t *testing.T, run stageStreamRun) string {
	t.Helper()
	res := mustTimeline(t, run.cfg, run.rate,
		TimelineOptions{RunFor: run.runFor, TraceCap: stageStreamCap, Profile: true})
	tr := res.Trace
	if kept := len(tr.Records()); tr.Total() != uint64(kept) {
		t.Fatalf("trace ring kept %d of %d records; raise stageStreamCap", kept, tr.Total())
	}
	h := sha256.New()
	if _, err := tr.WriteTo(h); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "total=%d delivered=%d\n", tr.Total(), res.Delivered)
	io.WriteString(h, profileTables(t, res.Profile))
	io.WriteString(h, res.Folded)
	return hex.EncodeToString(h.Sum(nil))
}

// TestStageStreamDigests holds every pinned configuration's stage
// stream to testdata/stage-stream-digests.json. The 51 runs take a few
// seconds, so like the figure seed digests it runs only with
// LIVELOCK_INVARIANCE set (make invariance).
func TestStageStreamDigests(t *testing.T) {
	if os.Getenv("LIVELOCK_INVARIANCE") == "" {
		t.Skip("set LIVELOCK_INVARIANCE=1 (make invariance) to run the stage-stream pins")
	}
	regen := os.Getenv("REGEN_GOLDEN") != ""
	want := map[string]string{}
	if !regen {
		blob, err := os.ReadFile(stageStreamPath)
		if err != nil {
			t.Fatalf("missing stage-stream digests (run with REGEN_GOLDEN=1): %v", err)
		}
		if err := json.Unmarshal(blob, &want); err != nil {
			t.Fatalf("corrupt %s: %v", stageStreamPath, err)
		}
	}
	runs := stageStreamRuns()
	got := map[string]string{}
	for _, run := range runs {
		t.Run(run.key, func(t *testing.T) {
			got[run.key] = stageStreamDigest(t, run)
			if !regen && got[run.key] != want[run.key] {
				t.Errorf("stage-stream digest %s, pinned %q", got[run.key], want[run.key])
			}
		})
	}
	if !regen {
		if len(want) != len(runs) {
			t.Errorf("%s pins %d configurations, the test runs %d", stageStreamPath, len(want), len(runs))
		}
		return
	}
	if t.Failed() || len(got) != len(runs) {
		t.Fatal("not regenerating from a failed or partial run")
	}
	blob, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stageStreamPath, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("regenerated %s with %d digests", stageStreamPath, len(got))
}
