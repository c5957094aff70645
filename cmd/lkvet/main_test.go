package main

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestListNamesEveryAnalyzer(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, name := range []string{"simdeterminism", "hotalloc", "uncharged", "lockguard"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, out.String())
		}
	}
}

func TestCleanPackageExitsZero(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"./../../internal/stats"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d on a clean package\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("unexpected findings: %s", out.String())
	}
}

func TestViolationExitsOne(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"./testdata/bad"}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "[simdeterminism]") || !strings.Contains(out.String(), "time.Now") {
		t.Errorf("missing the wall-clock finding:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "problem(s)") {
		t.Errorf("missing summary line on stderr: %s", errOut.String())
	}
}

func TestRacyKernelFixture(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"./testdata/racy"}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	for _, want := range []string{
		"[lockguard]",
		`guarded state ipintrq requires "ipqLock" (held: none)`,
		`guarded state outq requires "netLock" (held: ipqLock)`,
		`call to ifStart requires "netLock" (held: none)`,
		`lock-order cycle: acquiring "ipqLock" while holding "netLock"`,
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q in:\n%s", want, out.String())
		}
	}
}

func TestJSONOutput(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-json", "./testdata/bad"}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) == 0 {
		t.Fatal("no JSON diagnostics emitted")
	}
	var d struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Column   int    `json:"column"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &d); err != nil {
		t.Fatalf("line 0 is not JSON: %v\n%s", err, lines[0])
	}
	if d.Analyzer != "simdeterminism" || d.Line == 0 || !strings.Contains(d.File, "bad.go") {
		t.Errorf("unexpected diagnostic: %+v", d)
	}
	if !strings.Contains(d.Message, "time.Now") {
		t.Errorf("message lost in JSON encoding: %+v", d)
	}
}

func TestGitHubAnnotations(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-gh", "./testdata/racy"}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "::error file=") ||
		!strings.Contains(out.String(), "title=lkvet lockguard::") {
		t.Errorf("missing workflow-command annotations:\n%s", out.String())
	}
}

func TestBadPatternExitsTwo(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"./does/not/exist"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2 for an internal error", code)
	}
	if errOut.Len() == 0 {
		t.Error("expected an error message on stderr")
	}
}
