package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"livelock"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenArgs is a short fixed-seed livelock run; small enough to keep
// the golden file reviewable, long enough to contain the onset.
func goldenArgs(format, out string) []string {
	return []string{
		"-mode", "unmodified", "-screend", "-rate", "8000",
		"-interval", "10ms", "-for", "60ms", "-seed", "1",
		"-trace", "128", "-format", format, "-out", out,
	}
}

// TestPerfettoGolden pins the Perfetto export byte-for-byte: the trace
// for a fixed configuration and seed must never change by accident —
// not across hosts, not across refactors. Regenerate deliberately with
// `go test ./cmd/lkstat -run Golden -update`.
func TestPerfettoGolden(t *testing.T) {
	got := runToFile(t, goldenArgs("perfetto", ""))

	golden := filepath.Join("testdata", "livelock-onset.perfetto.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Perfetto export differs from golden (%d vs %d bytes); "+
			"if intentional, regenerate with -update", len(got), len(want))
	}

	// The golden trace must be real Perfetto JSON with all three event
	// families: counter tracks, CPU spans, and packet instants.
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatalf("golden trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		phases[ev.Ph]++
	}
	for _, ph := range []string{"M", "X", "C", "i"} {
		if phases[ph] == 0 {
			t.Errorf("no %q events in trace (have %v)", ph, phases)
		}
	}
}

// TestCSVDeterministicAndShowsLivelock re-runs the same configuration
// twice and requires byte-identical CSV; it then reads the timeline the
// way the README walkthrough does and checks the livelock signature is
// actually present in steady state: delivered delta zero, ipintrq depth
// pegged at its limit, receive-IPL utilization ≥ 0.95.
func TestCSVDeterministicAndShowsLivelock(t *testing.T) {
	args := []string{
		"-mode", "unmodified", "-screend", "-rate", "8000",
		"-interval", "10ms", "-for", "300ms", "-format", "csv",
	}
	first := runToFile(t, append([]string{}, args...))
	second := runToFile(t, append([]string{}, args...))
	if !bytes.Equal(first, second) {
		t.Fatal("identical invocations produced different CSV")
	}

	lines := strings.Split(strings.TrimSpace(string(first)), "\n")
	if len(lines) < 31 {
		t.Fatalf("expected 30 samples, got %d lines", len(lines))
	}
	header := strings.Split(lines[0], ",")
	col := func(name string) int {
		for i, h := range header {
			if h == name {
				return i
			}
		}
		t.Fatalf("column %q missing from header %v", name, header)
		return -1
	}
	delivered, depth, rxipl := col("delivered"), col("ipintrq.depth"), col("cpu.rxipl.util")
	// Steady state: skip the first 5 intervals of queue-fill transient.
	for _, line := range lines[6:] {
		f := strings.Split(line, ",")
		if f[delivered] != "0" {
			t.Fatalf("delivered delta %q in steady-state livelock, want 0 (row %s)", f[delivered], line)
		}
		if f[depth] != "49" && f[depth] != "50" {
			t.Fatalf("ipintrq.depth = %q, want pegged at ~50", f[depth])
		}
		if f[rxipl] < "0.95" { // fixed 4-decimal format makes this comparable
			t.Fatalf("cpu.rxipl.util = %q, want ≥ 0.95", f[rxipl])
		}
	}
}

// TestFaultTimelineValidates records a fault-scenario timeline and then
// re-reads it through -validate — the same gate CI applies to uploaded
// artifacts. It also checks the fault columns are present (and therefore
// schema-compatible with fault-free timelines) in CSV output.
func TestFaultTimelineValidates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "faults.json")
	args := []string{
		"-mode", "unmodified", "-screend", "-rate", "4000",
		"-interval", "10ms", "-for", "200ms",
		"-fault-drop", "0.02", "-fault-corrupt", "0.05",
		"-fault-stall", "5ms", "-fault-stall-period", "50ms", "-fault-reset",
		"-format", "json", "-out", path,
	}
	var stdout bytes.Buffer
	if err := run(args, &stdout); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-validate", path}, &out); err != nil {
		t.Fatalf("validate rejected fault timeline: %v", err)
	}
	if !strings.Contains(out.String(), "valid timeline") {
		t.Fatalf("unexpected validate output: %s", out.String())
	}

	csvData := runToFile(t, []string{
		"-mode", "polled", "-rate", "4000", "-interval", "10ms", "-for", "100ms",
		"-fault-drop", "0.02", "-format", "csv",
	})
	header := strings.SplitN(string(csvData), "\n", 2)[0]
	for _, col := range []string{"fault.wire.drops", "fault.nic.stalldrops", "fault.screend.pauses"} {
		if !strings.Contains(header, col) {
			t.Fatalf("CSV header missing %q: %s", col, header)
		}
	}
}

func TestValidateRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-validate", bad}, &out); err == nil {
		t.Fatal("validate accepted invalid JSON")
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"traceEvents":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-validate", empty}, &out); err == nil {
		t.Fatal("validate accepted empty traceEvents")
	}
}

func TestTraceUnmodifiedOverload(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-mode", "unmodified", "-screend", "-rate", "9000",
		"-for", "15ms", "-format", "log"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "events total") {
		t.Fatalf("summary missing:\n%.200s", out)
	}
	if !strings.Contains(out, "DROP") {
		t.Fatalf("no drops traced under overload:\n%.400s", out)
	}
}

func TestTraceSinglePacket(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-mode", "polled", "-rate", "500", "-for", "20ms",
		"-format", "log", "-pkt", "3"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := strings.TrimSpace(buf.String())
	if out == "" {
		t.Fatal("no lifecycle for packet 3")
	}
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "pkt#3 ") {
			t.Fatalf("foreign packet in filtered dump: %q", line)
		}
	}
}

// TestRunBadMode feeds invocations that describe no run. Each must be
// an error, not a panic, and must come before the run: an existing
// -out file is left untouched.
func TestRunBadMode(t *testing.T) {
	out := filepath.Join(t.TempDir(), "keep.csv")
	for _, args := range [][]string{
		{"-mode", "bogus"},
		{"-user", "-cpus", "2"},
		{"-format", "bogus"},
		{"-format", "log", "-trace", "0"},
		{"-pkt", "3"},
		{"-fault-reorder-mode", "shuffle"},
	} {
		if err := os.WriteFile(out, []byte("keep"), 0o644); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := run(append(args, "-for", "20ms", "-out", out), &buf); err == nil {
			t.Errorf("%v accepted", args)
		}
		if got, _ := os.ReadFile(out); string(got) != "keep" {
			t.Errorf("%v clobbered -out before rejecting", args)
		}
	}
}

// TestOutWriteError requires a failed write to -out to be reported:
// the output is buffered, so the error surfaces at Flush.
func TestOutWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	var buf bytes.Buffer
	err := run([]string{"-mode", "polled", "-rate", "8000", "-for", "50ms",
		"-format", "csv", "-out", "/dev/full"}, &buf)
	if err == nil {
		t.Fatal("write to /dev/full reported success")
	}
}

// runToFile invokes lkstat's run() writing to a temp file and returns
// the bytes, exercising the same code path as the command line.
func runToFile(t *testing.T, args []string) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "out")
	for i, a := range args {
		if a == "-out" {
			args[i+1] = path
		}
	}
	if !contains(args, "-out") {
		args = append(args, "-out", path)
	}
	var stdout bytes.Buffer
	if err := run(args, &stdout); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func contains(args []string, s string) bool {
	for _, a := range args {
		if a == s {
			return true
		}
	}
	return false
}

// TestRunAuditFailure pins the audit's error path: a run whose router
// holds a pool buffer outside the accounted flow fails conservation,
// and lkstat returns the audit error (main exits 1 with it) instead of
// panicking or writing output.
func TestRunAuditFailure(t *testing.T) {
	t.Cleanup(func() { runTimeline = livelock.RunTimeline })
	runTimeline = func(cfg livelock.Config, rate float64, o livelock.TimelineOptions) (livelock.TimelineResult, error) {
		r := livelock.NewRouter(livelock.NewEngine(), cfg)
		r.AttachGenerator(0, livelock.ConstantRate{Rate: rate}, 0).Start()
		r.Measure(0, o.RunFor)
		if r.Pool.Get(64) == nil {
			t.Fatal("pool exhausted")
		}
		_, err := r.Finish(0)
		return livelock.TimelineResult{}, err
	}
	var buf bytes.Buffer
	err := run([]string{"-for", "50ms", "-format", "csv"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "packet conservation violated") {
		t.Fatalf("err = %v, want the conservation audit's error", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("wrote output for a failed run:\n%s", buf.String())
	}
}
