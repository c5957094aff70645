package experiment

import (
	"bytes"
	"strings"
	"testing"

	"livelock/internal/kernel"
	"livelock/internal/sim"
)

// fastOpts keeps experiment tests quick.
var fastOpts = Options{
	Rates:   []float64{1000, 5000, 10000},
	Warmup:  300 * sim.Millisecond,
	Measure: sim.Second,
}

func TestFig61Shape(t *testing.T) {
	fig := Fig61(fastOpts)
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	no, with := fig.Series[0], fig.Series[1]
	if no.Peak() < with.Peak() {
		t.Fatal("screend should lower the peak")
	}
	if with.Final() > 100 {
		t.Fatalf("screend arm should livelock at 10k (got %.0f)", with.Final())
	}
	if no.Final() >= no.Peak() {
		t.Fatal("no-screend arm should decline past its peak")
	}
}

func TestFig63Shape(t *testing.T) {
	fig := Fig63(fastOpts)
	labels := map[string]Series{}
	for _, s := range fig.Series {
		labels[s.Label] = s
	}
	q5 := labels["Polling (quota = 5)"]
	noQ := labels["Polling (no quota)"]
	unmod := labels["Unmodified"]
	if q5.Final() < 0.9*q5.Peak() {
		t.Fatalf("quota-5 not flat: peak %.0f final %.0f", q5.Peak(), q5.Final())
	}
	if noQ.Final() > 500 {
		t.Fatalf("no-quota did not collapse: %.0f", noQ.Final())
	}
	if q5.Peak() < unmod.Peak() {
		t.Fatal("polling should match or beat the unmodified MLFRR")
	}
}

func TestFig64Shape(t *testing.T) {
	fig := Fig64(fastOpts)
	fb := fig.Series[2]
	nofb := fig.Series[1]
	if fb.Final() < 1700 {
		t.Fatalf("feedback arm not stable: %.0f", fb.Final())
	}
	if nofb.Final() > 300 {
		t.Fatalf("no-feedback arm did not collapse: %.0f", nofb.Final())
	}
}

func TestFig65QuotaOrdering(t *testing.T) {
	fig := Fig65(fastOpts)
	finals := map[string]float64{}
	for _, s := range fig.Series {
		finals[s.Label] = s.Final()
	}
	if finals["quota = infinity"] > 500 {
		t.Fatalf("quota=∞ final %.0f", finals["quota = infinity"])
	}
	if finals["quota = 5 packets"] < finals["quota = 100 packets"] {
		t.Fatal("small quota should beat large quota under overload")
	}
}

func TestFig66AllStable(t *testing.T) {
	fig := Fig66(fastOpts)
	for _, s := range fig.Series {
		if s.Final() < 1600 {
			t.Errorf("%s final %.0f, want stable", s.Label, s.Final())
		}
	}
}

func TestFig71Shape(t *testing.T) {
	o := fastOpts
	o.Rates = []float64{0, 4000, 10000}
	fig := Fig71(o)
	// At zero load every threshold gives the user ~94%.
	for _, s := range fig.Series {
		if s.Points[0].UserPct < 90 {
			t.Errorf("%s: idle user %.1f%%, want ≈94", s.Label, s.Points[0].UserPct)
		}
	}
	// Under flood, user share orders inversely with threshold, and the
	// unlimited (100%) threshold starves the user.
	last := func(i int) float64 { return fig.Series[i].Points[2].UserPct }
	if !(last(0) > last(1) && last(1) > last(2) && last(2) > last(3)) {
		t.Fatalf("user shares not ordered by threshold: %v %v %v %v",
			last(0), last(1), last(2), last(3))
	}
	if last(3) > 2 {
		t.Fatalf("threshold 100%% should starve the user: %.1f%%", last(3))
	}
}

func TestRenderers(t *testing.T) {
	fig := Fig61(Options{
		Rates:   []float64{1000, 8000},
		Warmup:  200 * sim.Millisecond,
		Measure: 500 * sim.Millisecond,
	})
	var tbl, csv bytes.Buffer
	if err := fig.WriteTable(&tbl); err != nil {
		t.Fatal(err)
	}
	if err := fig.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "Figure 6-1") {
		t.Fatalf("table missing header:\n%s", tbl.String())
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv rows = %d, want header + 2", len(lines))
	}
	if !strings.HasPrefix(lines[0], "input_rate,") {
		t.Fatalf("csv header %q", lines[0])
	}
}

func TestByID(t *testing.T) {
	for _, id := range []string{"6-1", "6-3", "6-4", "6-5", "6-6", "7-1", "61", "fig6-1", "S-1", "S-2", "s1", "s2", "T-1", "T-2", "t1", "t2"} {
		if ByID(id) == nil {
			t.Errorf("ByID(%q) = nil", id)
		}
	}
	if ByID("9-9") != nil {
		t.Error("ByID(9-9) should be nil")
	}
}

func TestMLFRREstimates(t *testing.T) {
	o := Options{Warmup: 300 * sim.Millisecond, Measure: sim.Second}
	unmod, err := MLFRR(kernel.Config{Mode: kernel.ModeUnmodified}, 0.98, o)
	if err != nil {
		t.Fatal(err)
	}
	if unmod < 4000 || unmod > 5500 {
		t.Fatalf("unmodified MLFRR = %.0f, want ≈4700", unmod)
	}
	polled, err := MLFRR(kernel.Config{Mode: kernel.ModePolled, Quota: 5}, 0.98, o)
	if err != nil {
		t.Fatal(err)
	}
	if polled < unmod {
		t.Fatalf("polled MLFRR %.0f below unmodified %.0f", polled, unmod)
	}
}

func TestBurstLatencyEffect(t *testing.T) {
	o := Options{Warmup: 200 * sim.Millisecond, Measure: sim.Second}
	burst := func(mode kernel.Mode, n int) LatencyPoint {
		t.Helper()
		pt, err := BurstLatency(mode, n, o)
		if err != nil {
			t.Fatal(err)
		}
		return pt
	}
	u := burst(kernel.ModeUnmodified, 20)
	p := burst(kernel.ModePolled, 20)
	if p.FirstPkt*2 > u.FirstPkt {
		t.Fatalf("first-of-burst latency: polled %v vs unmodified %v, want clear win",
			p.FirstPkt, u.FirstPkt)
	}
	// Longer bursts make it worse for the interrupt-driven kernel.
	u5 := burst(kernel.ModeUnmodified, 5)
	if u.FirstPkt <= u5.FirstPkt {
		t.Fatalf("burst 20 first-packet latency %v not above burst 5 %v", u.FirstPkt, u5.FirstPkt)
	}
}

func TestTransmitStarvation(t *testing.T) {
	res, err := TransmitStarvation(Options{Warmup: 300 * sim.Millisecond, Measure: sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.OutputRate > 500 {
		t.Fatalf("output %.0f, want starvation", res.OutputRate)
	}
	if res.OutQueueDrops == 0 {
		t.Fatal("no output-queue drops during starvation")
	}
	if !res.WireIdle {
		t.Fatal("transmit descriptors should be exhausted (wire starved)")
	}
}

func TestFairnessAcrossInputs(t *testing.T) {
	// Two flooded inputs: the polled kernel's round-robin splits
	// processing nearly evenly.
	res, err := Fairness(kernel.ModePolled, 5, 2, 8000, Options{
		Warmup: 300 * sim.Millisecond, Measure: sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total == 0 {
		t.Fatal("nothing processed")
	}
	if im := res.Imbalance(); im > 1.1 {
		t.Fatalf("round-robin imbalance %.2f, want <= 1.1 (per-input %v)", im, res.PerInput)
	}
}
