//go:build race

package kernel

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = true
