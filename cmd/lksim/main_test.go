package main

import (
	"bytes"
	"strings"
	"testing"

	"livelock"
)

func TestRunPolled(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-mode", "polled", "-rate", "8000", "-quota", "5",
		"-warmup", "200ms", "-measure", "500ms"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"forwarded:", "conservation     OK", "poller:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunUnmodifiedScreend(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-mode", "unmodified", "-screend", "-rate", "7000",
		"-warmup", "200ms", "-measure", "500ms"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "screendq drops") {
		t.Fatalf("missing drop table:\n%s", buf.String())
	}
}

func TestRunWithUserAndCycleLimit(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-mode", "polled", "-user", "-cyclelimit", "0.5",
		"-rate", "10000", "-warmup", "200ms", "-measure", "500ms"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "user CPU:") {
		t.Fatalf("missing user CPU line:\n%s", buf.String())
	}
}

func TestRunPoisson(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-poisson", "-rate", "2000",
		"-warmup", "100ms", "-measure", "300ms"}, &buf); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithFaults(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-mode", "polled", "-rate", "6000",
		"-fault-drop", "0.02", "-fault-corrupt", "0.05", "-fault-truncate", "0.02",
		"-fault-dup", "0.02", "-fault-delay", "0.02",
		"-fault-stall", "5ms", "-fault-stall-period", "100ms", "-fault-reset",
		"-fault-intr-loss", "0.01",
		"-warmup", "200ms", "-measure", "500ms"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"conservation     OK", "wire drops", "bad checksums", "stall drops"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunScreendPauseFault(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-mode", "unmodified", "-screend", "-rate", "3000",
		"-fault-screend-pause", "20ms", "-fault-screend-pause-period", "100ms",
		"-warmup", "200ms", "-measure", "500ms"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "conservation     OK") {
		t.Fatalf("missing conservation line:\n%s", buf.String())
	}
}

// TestRunBadMode feeds configurations no router can be built from;
// each must come back as an error, not a panic.
func TestRunBadMode(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "bogus"},
		{"-user", "-cpus", "2"},
		{"-coalesce", "sometimes"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-definitely-not-a-flag"}, &buf); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestRunAuditFailure pins the audit's error path: a router that holds
// a pool buffer outside the accounted flow fails conservation, and
// lksim returns the audit error (main exits 1 with it) instead of
// panicking or printing an OK verdict.
func TestRunAuditFailure(t *testing.T) {
	t.Cleanup(func() { newRouter = livelock.NewRouter })
	newRouter = func(eng *livelock.Engine, cfg livelock.Config) *livelock.Router {
		r := livelock.NewRouter(eng, cfg)
		if r.Pool.Get(64) == nil {
			t.Fatal("pool exhausted")
		}
		return r
	}
	var buf bytes.Buffer
	err := run([]string{"-warmup", "50ms", "-measure", "100ms"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "packet conservation violated") {
		t.Fatalf("err = %v, want the conservation audit's error", err)
	}
	if out := buf.String(); strings.Contains(out, "OK") || !strings.Contains(out, "still buffered") {
		t.Fatalf("want the accounting table without an OK verdict:\n%s", out)
	}
}
