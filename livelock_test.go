package livelock

import (
	"bytes"
	"strings"
	"testing"
)

// The facade tests exercise the public API end-to-end; detailed behaviour
// is covered in the internal packages.

func TestPublicRunTrial(t *testing.T) {
	res, err := RunTrial(Config{Mode: ModePolled, Quota: 5}, 2000, 200*Millisecond, Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.OutputRate < 1900 || res.OutputRate > 2100 {
		t.Fatalf("OutputRate = %.0f, want ≈2000", res.OutputRate)
	}
	if res.Accounting.Malformed != 0 {
		t.Fatal("malformed frames")
	}
}

func TestPublicFigureByID(t *testing.T) {
	run := FigureByID("6-1")
	if run == nil {
		t.Fatal("FigureByID(6-1) = nil")
	}
	fig := run(Options{Rates: []float64{1000}, Warmup: 100 * Millisecond, Measure: 300 * Millisecond})
	if fig.ID != "6-1" || len(fig.Series) != 2 {
		t.Fatalf("unexpected figure %q with %d series", fig.ID, len(fig.Series))
	}
	var buf bytes.Buffer
	if err := fig.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty table")
	}
}

func TestPublicRouterAssembly(t *testing.T) {
	eng := NewEngine()
	r := NewRouter(eng, Config{Mode: ModeUnmodified})
	gen := r.AttachGenerator(0, ConstantRate{Rate: 500}, 100)
	gen.Start()
	eng.Run(Time(Second))
	if r.Delivered() != 100 {
		t.Fatalf("Delivered = %d, want 100", r.Delivered())
	}
}

func TestPublicHelpers(t *testing.T) {
	o := Options{Warmup: 200 * Millisecond, Measure: 500 * Millisecond}
	if m, err := MLFRR(Config{Mode: ModeUnmodified}, 0.98, o); err != nil || m < 3500 || m > 6000 {
		t.Fatalf("MLFRR = %.0f, %v", m, err)
	}
	st, err := TransmitStarvation(o)
	if err != nil || st.OutputRate > 500 {
		t.Fatalf("starvation output = %.0f, %v", st.OutputRate, err)
	}
	f, err := Fairness(ModePolled, 5, 2, 8000, o)
	if err != nil {
		t.Fatal(err)
	}
	if f.Imbalance() > 1.2 {
		t.Fatalf("imbalance %.2f", f.Imbalance())
	}
}

func TestPublicEndSystemAPI(t *testing.T) {
	eng := NewEngine()
	r := NewRouter(eng, Config{Mode: ModePolled, Quota: 5})
	app := r.StartApp(AppConfig{
		Port: 2049, RecvCost: 100 * Microsecond, ProcessCost: 100 * Microsecond,
		ReplyBytes: 64, ReplyCost: 100 * Microsecond,
	})
	mon := r.StartMonitor(MonitorConfig{})
	client := r.AttachClient(0, ClientConfig{Port: 2049, Window: 4})
	client.Start()
	eng.Run(Time(Second))
	if app.Served.Value() == 0 || client.Completed.Value() == 0 {
		t.Fatalf("served=%d completed=%d", app.Served.Value(), client.Completed.Value())
	}
	if mon.Captured.Value() == 0 {
		t.Fatal("monitor captured nothing")
	}
	if RouterIP(0) != (Addr{10, 0, 0, 1}) {
		t.Fatalf("RouterIP(0) = %v", RouterIP(0))
	}
	if PhantomDest() != (Addr{10, 0, 1, 9}) {
		t.Fatalf("PhantomDest = %v", PhantomDest())
	}
}

func TestPublicTCP(t *testing.T) {
	pts, err := TCPUnderFlood(ModePolled, []float64{0},
		Options{Warmup: 200 * Millisecond, Measure: Second})
	if err != nil || len(pts) != 1 || pts[0].GoodputBps < 500_000 {
		t.Fatalf("TCP goodput = %+v, %v", pts, err)
	}
	var buf bytes.Buffer
	if err := WriteTCPTable(&buf, Options{Warmup: 100 * Millisecond, Measure: 300 * Millisecond}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "polled goodput") {
		t.Fatalf("table: %s", buf.String())
	}
}

func TestPublicClockedAndLatencyTables(t *testing.T) {
	o := Options{Warmup: 100 * Millisecond, Measure: 300 * Millisecond}
	var buf bytes.Buffer
	if err := WriteClockedTable(&buf, o); err != nil {
		t.Fatal(err)
	}
	if err := WriteBurstLatencyTable(&buf, o); err != nil {
		t.Fatal(err)
	}
	if pts, err := ClockedPollingSweep([]Duration{Millisecond}, o); err != nil || len(pts) != 1 {
		t.Fatalf("clocked sweep: %v, %v", pts, err)
	}
	if bl, err := BurstLatency(ModePolled, 8, o); err != nil || bl.FirstPkt <= 0 {
		t.Fatalf("burst latency: %+v, %v", bl, err)
	}
}

func TestPublicCostsProfiles(t *testing.T) {
	d, m := DefaultCosts(), ModernCosts()
	if m.PolledRxPerPkt >= d.PolledRxPerPkt/50 {
		t.Fatalf("ModernCosts not ~100× faster: %v vs %v", m.PolledRxPerPkt, d.PolledRxPerPkt)
	}
	if DefaultConfig().IPIntrQLimit != 50 {
		t.Fatalf("DefaultConfig ipintrq limit = %d", DefaultConfig().IPIntrQLimit)
	}
}

func TestPublicAllFiguresSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	figs := AllFigures(Options{
		Rates:   []float64{1000, 8000},
		Warmup:  100 * Millisecond,
		Measure: 300 * Millisecond,
	})
	if len(figs) != 11 {
		t.Fatalf("AllFigures returned %d figures", len(figs))
	}
	for _, f := range figs {
		var buf bytes.Buffer
		if err := f.WritePlot(&buf); err != nil {
			t.Fatalf("%s plot: %v", f.ID, err)
		}
	}
}
