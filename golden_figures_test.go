package livelock

// The golden figure-hash test is the perf work's no-drift contract:
// every figure in the paper's evaluation is regenerated at the benchOpts
// settings, rendered to canonical CSV, and its SHA-256 digest compared
// against the committed reference in testdata/golden-figures.json. Any
// change that alters a single byte of any figure — a scheduler reorder,
// an RNG draw moved, a float formatted differently — fails here, so
// engine and hot-path optimisations can be landed with proof that the
// science is untouched.
//
// When a change is *supposed* to move the results (a cost-model
// recalibration, a new series), regenerate the digests with
//
//	REGEN_GOLDEN=1 go test -run TestGoldenFigureHashes .
//
// and commit the updated JSON alongside the change, mirroring the
// REGEN_FUZZ_CORPUS workflow in internal/netstack.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

const goldenFigurePath = "testdata/golden-figures.json"

// figureCSVs renders every figure at o as canonical CSV, keyed by
// figure ID. The sweep runs through the parallel executor at the
// default worker count; worker count is proven not to change bytes by
// TestTimelineDeterministicAcrossWorkers and the executor's positional
// assembly.
func figureCSVs(t *testing.T, o Options) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, fig := range AllFigures(o) {
		if len(fig.Errors) != 0 {
			t.Fatalf("figure %s sweep failed: %v", fig.ID, fig.Errors)
		}
		var buf bytes.Buffer
		if err := fig.WriteCSV(&buf); err != nil {
			t.Fatalf("figure %s: WriteCSV: %v", fig.ID, err)
		}
		if _, dup := out[fig.ID]; dup {
			t.Fatalf("duplicate figure ID %q", fig.ID)
		}
		out[fig.ID] = buf.String()
	}
	return out
}

func TestGoldenFigureHashes(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep is slow")
	}
	csvs := figureCSVs(t, benchOpts)
	got := make(map[string]string, len(csvs))
	for id, csv := range csvs {
		got[id] = sha256Hex(csv)
	}

	if os.Getenv("REGEN_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenFigurePath), 0o755); err != nil {
			t.Fatal(err)
		}
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFigurePath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s with %d figure digests", goldenFigurePath, len(got))
		return
	}

	blob, err := os.ReadFile(goldenFigurePath)
	if err != nil {
		t.Fatalf("missing golden digests (run REGEN_GOLDEN=1 go test -run TestGoldenFigureHashes .): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("corrupt %s: %v", goldenFigurePath, err)
	}

	var ids []string
	for id := range want {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		g, ok := got[id]
		if !ok {
			t.Errorf("figure %s in golden file but not produced by AllFigures", id)
			continue
		}
		if g != want[id] {
			t.Errorf("figure %s drifted: digest %s, golden %s\n%s", id, g, want[id],
				diffHint(csvs[id]))
		}
	}
	for id := range got {
		if _, ok := want[id]; !ok {
			t.Errorf("figure %s produced but missing from golden file (REGEN_GOLDEN=1 to adopt)", id)
		}
	}
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// diffHint returns the first lines of the drifted CSV so the failure
// message shows what the figure looks like now without dumping the
// whole table.
func diffHint(csv string) string {
	const maxLen = 400
	if len(csv) > maxLen {
		csv = csv[:maxLen] + "..."
	}
	return fmt.Sprintf("current CSV starts:\n%s", csv)
}
