package livelock

// TestFigureSeedDigests pins every figure's CSV at seeds 1, 3 and 7,
// each at the default windows and at 100 ms/300 ms: the same sweeps
// `lkfigures -csv -seed N` and `lkfigures -csv -seed N -warmup 100ms
// -measure 300ms` print. Together with TestGoldenFigureHashes (one
// seed at the golden settings) it is the figure half of `make
// invariance`, the one command that proves a change moved no model
// output. The six sweeps take about 25 s of CPU, so the test runs
// only with LIVELOCK_INVARIANCE set and stays out of the tier-1 suite.
//
// Regenerate after an intentional model change with
//
//	REGEN_GOLDEN=1 LIVELOCK_INVARIANCE=1 go test -run TestFigureSeedDigests .

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"
)

const seedDigestPath = "testdata/figure-seed-digests.json"

func TestFigureSeedDigests(t *testing.T) {
	if os.Getenv("LIVELOCK_INVARIANCE") == "" {
		t.Skip("set LIVELOCK_INVARIANCE=1 (make invariance) to run the seed sweeps")
	}
	windows := []struct {
		name            string
		warmup, measure Duration
	}{
		{"default", 0, 0},
		{"100ms-300ms", 100 * Millisecond, 300 * Millisecond},
	}
	got := map[string]string{}
	for _, seed := range []uint64{1, 3, 7} {
		for _, w := range windows {
			o := Options{Seed: seed, Warmup: w.warmup, Measure: w.measure}
			for id, csv := range figureCSVs(t, o) {
				got[fmt.Sprintf("seed%d/%s/%s", seed, w.name, id)] = sha256Hex(csv)
			}
		}
	}

	if os.Getenv("REGEN_GOLDEN") != "" {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seedDigestPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s with %d digests", seedDigestPath, len(got))
		return
	}
	blob, err := os.ReadFile(seedDigestPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("corrupt %s: %v", seedDigestPath, err)
	}
	keys := make([]string, 0, len(want)+len(got))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s: digest %q, pinned %q", k, got[k], want[k])
		}
	}
}
