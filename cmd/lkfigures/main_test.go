package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"livelock"
)

// fastArgs keeps the sweeps short for testing.
var fastArgs = []string{"-warmup", "100ms", "-measure", "300ms"}

func TestRunSingleFigureTable(t *testing.T) {
	var buf bytes.Buffer
	if err := run(append([]string{"-fig", "6-1"}, fastArgs...), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 6-1") || !strings.Contains(out, "With screend") {
		t.Fatalf("table output wrong:\n%s", out)
	}
}

func TestRunCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := run(append([]string{"-fig", "7-1", "-csv"}, fastArgs...), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "input_rate,") {
		t.Fatalf("csv output wrong:\n%.100s", buf.String())
	}
}

func TestRunPlot(t *testing.T) {
	var buf bytes.Buffer
	if err := run(append([]string{"-fig", "6-3", "-plot"}, fastArgs...), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Polling (no quota)") {
		t.Fatalf("plot legend missing:\n%s", buf.String())
	}
}

func TestRunCSVFiles(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run(append([]string{"-fig", "6-4", "-out", dir}, fastArgs...), &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig-6-4.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Polling w/feedback") {
		t.Fatalf("csv file wrong:\n%s", data)
	}
}

// TestRunParallelDeterminism: the -parallel flag must not change the
// rendered output — serial and multi-worker sweeps are byte-identical.
func TestRunParallelDeterminism(t *testing.T) {
	var serial, parallel bytes.Buffer
	args := append([]string{"-fig", "6-4", "-csv"}, fastArgs...)
	if err := run(append(args, "-parallel", "1"), &serial); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-parallel", "8"), &parallel); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Fatalf("-parallel changed the output:\n--- serial\n%s--- parallel 8\n%s",
			serial.String(), parallel.String())
	}
}

func TestRunMLFRR(t *testing.T) {
	var buf bytes.Buffer
	if err := run(append([]string{"-fig", "mlfrr"}, fastArgs...), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "MLFRR estimates") {
		t.Fatalf("mlfrr output wrong:\n%s", buf.String())
	}
}

func TestRunLatency(t *testing.T) {
	var buf bytes.Buffer
	if err := run(append([]string{"-fig", "latency"}, fastArgs...), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "first-of-burst") {
		t.Fatalf("latency output wrong:\n%s", buf.String())
	}
}

func TestRunUnknownFigure(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-fig", "9-9"}, &buf); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

// TestRunTrialFailureExitStatus: a failed trial makes run return an
// error naming the failure count, but only after every figure has
// been written.
func TestRunTrialFailureExitStatus(t *testing.T) {
	defer func(orig func(livelock.Options) []livelock.Figure) { allFigures = orig }(allFigures)
	allFigures = func(livelock.Options) []livelock.Figure {
		fig := func(id string, errs ...livelock.TrialError) livelock.Figure {
			return livelock.Figure{ID: id, Title: "stub", Series: []livelock.Series{
				{Label: "s", Points: []livelock.Point{{InputRate: 1000}}}}, Errors: errs}
		}
		return []livelock.Figure{
			fig("X-1", livelock.TrialError{Series: "s", Rate: 1000, Err: errors.New("injected")}),
			fig("X-2"),
		}
	}
	dir := t.TempDir()
	var buf bytes.Buffer
	err := run([]string{"-out", dir}, &buf)
	if err == nil || !strings.Contains(err.Error(), "1 trial(s) failed") {
		t.Fatalf("run error = %v, want the failure count", err)
	}
	for _, id := range []string{"X-1", "X-2"} {
		if _, err := os.Stat(filepath.Join(dir, "fig-"+id+".csv")); err != nil {
			t.Errorf("figure %s not written before the error: %v", id, err)
		}
	}
}
