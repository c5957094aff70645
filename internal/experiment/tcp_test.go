package experiment

import (
	"testing"

	"livelock/internal/sim"
)

// tcpOpts runs the T-figures long enough for the goodput ratios to
// settle; the assertions below carry a small margin relative to the
// golden-settings (3 s) figures in testdata/golden-figures.json.
var tcpOpts = Options{
	Warmup:  500 * sim.Millisecond,
	Measure: 3 * sim.Second,
}

// TestFigT1Shape pins the qualitative Wu/DeMar/Crawford result the
// figure reproduces: on a reordering, lightly lossy path, raising the
// interrupt-coalescing threshold degrades Reno and NewReno goodput
// steeply, SACK holds a clear margin over both at every threshold, and
// receiver-side resequencing recovers ≥90% of the (sorted) no-reorder
// goodput everywhere.
func TestFigT1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep in short mode")
	}
	fig := runFigure(tcpOpts, planT1)
	if len(fig.Errors) != 0 {
		t.Fatalf("sweep failed: %v", fig.Errors)
	}
	s := map[string]Series{}
	for _, ser := range fig.Series {
		s[ser.Label] = ser
	}
	reno := s["Reno, reorder"]
	newreno := s["NewReno, reorder"]
	sack := s["SACK, reorder"]
	sorted := s["SACK, reorder+sort"]
	sortBase := s["SACK, sort, no reorder"]
	clean := s["SACK, no reorder"]
	if len(reno.Points) == 0 {
		t.Fatalf("series missing; labels: %v", labelsOf(fig))
	}

	// Coalescing × reorder is multiplicative for the pre-SACK
	// generations: both lose more than a third of their goodput across
	// the threshold sweep.
	for _, ser := range []Series{reno, newreno} {
		if ser.Final() > 0.66*ser.Points[0].OutputRate {
			t.Errorf("%s: goodput %.0f → %.0f, want a steep decline",
				ser.Label, ser.Points[0].OutputRate, ser.Final())
		}
	}
	// SACK degrades less: it stays above Reno and NewReno at every
	// coalescing threshold.
	for i := range sack.Points {
		if sack.Points[i].OutputRate <= reno.Points[i].OutputRate ||
			sack.Points[i].OutputRate <= newreno.Points[i].OutputRate {
			t.Errorf("threshold %.0f: SACK %.0f not above Reno %.0f / NewReno %.0f",
				sack.Points[i].InputRate, sack.Points[i].OutputRate,
				reno.Points[i].OutputRate, newreno.Points[i].OutputRate)
		}
	}
	// Resequencing repairs the reorder damage: ≥90% of the no-reorder
	// goodput of the same (sorting) receiver at every threshold, and a
	// large gain over the unsorted reorder arm once coalescing bites.
	for i := range sorted.Points {
		if got, base := sorted.Points[i].OutputRate, sortBase.Points[i].OutputRate; got < 0.9*base {
			t.Errorf("threshold %.0f: sorted goodput %.0f below 90%% of no-reorder %.0f",
				sorted.Points[i].InputRate, got, base)
		}
	}
	if sorted.Final() < 1.3*sack.Final() {
		t.Errorf("sorting gains too little at max coalescing: %.0f vs unsorted %.0f",
			sorted.Final(), sack.Final())
	}
	// The no-reorder path itself pays for coalescing only through the
	// holdoff RTT inflation — a decline, but far gentler than the
	// reorder arms'.
	if clean.Final() < 0.5*clean.Points[0].OutputRate {
		t.Errorf("baseline collapsed under coalescing alone: %.0f → %.0f",
			clean.Points[0].OutputRate, clean.Final())
	}
}

// TestFigT2Shape pins the reorder-intensity axis: every variant
// declines as reordering rises, the loss-recovery generations order
// Reno ≤ NewReno ≤ SACK at the fixed coalescing threshold, and the
// sorting receiver is nearly flat across the whole sweep.
func TestFigT2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep in short mode")
	}
	fig := runFigure(tcpOpts, planT2)
	if len(fig.Errors) != 0 {
		t.Fatalf("sweep failed: %v", fig.Errors)
	}
	s := map[string]Series{}
	for _, ser := range fig.Series {
		s[ser.Label] = ser
	}
	for _, label := range []string{"Tahoe", "Reno", "NewReno", "SACK"} {
		ser := s[label]
		if len(ser.Points) == 0 {
			t.Fatalf("series %q missing; labels: %v", label, labelsOf(fig))
		}
		if ser.Final() >= ser.Points[0].OutputRate {
			t.Errorf("%s: goodput did not decline with reorder intensity (%.0f → %.0f)",
				label, ser.Points[0].OutputRate, ser.Final())
		}
	}
	// The generations separate under heavy reordering (the 50/1000
	// point matches T-1's fixed intensity).
	mid := len(tcpReorderIntensities) - 2
	if s["SACK"].Points[mid].OutputRate <= s["Reno"].Points[mid].OutputRate ||
		s["SACK"].Points[mid].OutputRate <= s["NewReno"].Points[mid].OutputRate {
		t.Errorf("SACK %.0f not above Reno %.0f / NewReno %.0f at %v/1000",
			s["SACK"].Points[mid].OutputRate, s["Reno"].Points[mid].OutputRate,
			s["NewReno"].Points[mid].OutputRate, tcpReorderIntensities[mid])
	}
	// Sorting holds ≥85% of its clean-path goodput up to T-1's fixed
	// intensity while the unsorted arms lose half.
	sorted := s["SACK + sort"]
	if sorted.Points[mid].OutputRate < 0.85*sorted.Points[0].OutputRate {
		t.Errorf("sorted arm not flat: %.0f at %v/1000 vs %.0f clean",
			sorted.Points[mid].OutputRate, tcpReorderIntensities[mid], sorted.Points[0].OutputRate)
	}
}

func labelsOf(fig Figure) []string {
	var out []string
	for _, s := range fig.Series {
		out = append(out, s.Label)
	}
	return out
}
