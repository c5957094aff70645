package kernel

import (
	"reflect"
	"testing"

	"livelock/internal/sim"
)

// modernConfig is the paper's experiment transplanted to ~100×-faster
// hardware: a gigabit-class link and a correspondingly faster CPU.
func modernConfig(mode Mode, quota int) Config {
	return Config{
		Mode:        mode,
		Quota:       quota,
		Costs:       ModernCosts(),
		LinkBitRate: 1_000_000_000,
	}
}

// modernTrial runs a short trial at the given offered rate.
func modernTrial(t *testing.T, cfg Config, rate float64) TrialResult {
	t.Helper()
	return mustTrial(t, cfg, rate, 100*sim.Millisecond, 500*sim.Millisecond)
}

// TestLivelockIsArchitectural: on hardware ~100× faster, the same
// curves reproduce at ~100× the rates — the interrupt-driven kernel
// still declines past its (now ~450k pkts/s) MLFRR and the polled
// kernel still holds flat. Livelock is a property of the scheduling
// architecture, not of 1996 hardware; this is why the paper's design
// became Linux NAPI.
func TestLivelockIsArchitectural(t *testing.T) {
	unmodPeak := modernTrial(t, modernConfig(ModeUnmodified, 5), 450_000).OutputRate
	if unmodPeak < 350_000 {
		t.Fatalf("modern unmodified peak %.0f, want ~100× the 1996 value", unmodPeak)
	}
	unmodOver := modernTrial(t, modernConfig(ModeUnmodified, 5), 1_200_000).OutputRate
	if unmodOver > 0.6*unmodPeak {
		t.Fatalf("modern unmodified kernel did not decline: %.0f vs peak %.0f",
			unmodOver, unmodPeak)
	}
	polledOver := modernTrial(t, modernConfig(ModePolled, 5), 1_200_000).OutputRate
	if polledOver < 0.9*unmodPeak {
		t.Fatalf("modern polled kernel sagged under overload: %.0f vs %.0f",
			polledOver, unmodPeak)
	}
}

// TestModernCostsScalesEveryField walks Costs by reflection so a cost
// added later cannot be left at its 1996 value: an unscaled saving
// larger than the path it saves on makes a work cost negative.
func TestModernCostsScalesEveryField(t *testing.T) {
	def, mod := reflect.ValueOf(DefaultCosts()), reflect.ValueOf(ModernCosts())
	durType := reflect.TypeOf(sim.Duration(0))
	for i := 0; i < def.NumField(); i++ {
		f := def.Type().Field(i)
		if f.Type != durType {
			t.Errorf("Costs.%s is a %v, not a sim.Duration: ModernCosts cannot scale it", f.Name, f.Type)
			continue
		}
		d := sim.Duration(def.Field(i).Int())
		if got, want := sim.Duration(mod.Field(i).Int()), (d+50)/100; got != want {
			t.Errorf("ModernCosts().%s = %v, want %v (DefaultCosts %v / 100)", f.Name, got, want, d)
		}
	}
}

// TestModernFastPath runs the forwarding cache on the modern cost
// profile in both kernel families: every packet is a cache hit, so the
// saving applies on every one, and the run must pass its audits.
func TestModernFastPath(t *testing.T) {
	for _, mode := range []Mode{ModeUnmodified, ModePolled} {
		cfg := modernConfig(mode, 5)
		cfg.FastPath = true
		res := modernTrial(t, cfg, 200_000)
		if res.OutputRate < 0.95*res.InputRate {
			t.Errorf("%v: fast path forwarded %.0f of %.0f pkts/s below its MLFRR",
				mode, res.OutputRate, res.InputRate)
		}
	}
}
