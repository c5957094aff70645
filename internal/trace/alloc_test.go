package trace

import (
	"testing"

	"livelock/internal/prov"
	"livelock/internal/sim"
)

// Emit sits on every traced hot-path event — with typed stage records
// there is no string formatting at emission time, so a full ring cycle
// (append, wrap, overwrite), stages and drops alike, must not allocate.
func TestAllocsEmit(t *testing.T) {
	tr := New(8)
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 16; i++ {
			tr.Emit(sim.Time(i), prov.StageForwarded, prov.ReasonNone, uint64(i))
			tr.Emit(sim.Time(i), prov.StageOutQDrop, prov.ReasonOutQFull, uint64(i))
		}
	})
	if allocs != 0 {
		t.Fatalf("Emit allocates %v objects, want 0", allocs)
	}
}
