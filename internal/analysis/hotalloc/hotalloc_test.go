package hotalloc_test

import (
	"testing"

	"livelock/internal/analysis/analysistest"
	"livelock/internal/analysis/hotalloc"
)

func TestViolations(t *testing.T) {
	// The fixture package plays the role of an AllocsPerRun-gated
	// kernel package so the fmt and Post rules apply to it.
	gated := map[string]bool{"a": true}
	analysistest.Run(t, hotalloc.New(gated, gated), "testdata/src/a")
}

func TestPostRuleScopedToKernelPackages(t *testing.T) {
	// Package b is outside the Post rule's set: its closure posts are
	// not reported.
	gated := map[string]bool{"a": true}
	analysistest.Run(t, hotalloc.New(gated, gated), "testdata/src/b")
}
