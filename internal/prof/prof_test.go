package prof

import (
	"strings"
	"testing"

	"livelock/internal/prov"
	"livelock/internal/sim"
)

func TestUsefulWastedSplit(t *testing.T) {
	p := New()

	// Packet 1: 100ns of rx-intr + 200ns of ip-input, delivered.
	h1 := p.Attach(1, 0)
	p.Invest(h1, prov.CenterRxIntr, 100)
	p.Stage(h1, prov.StageIPIntrQEnqueue, 50)
	p.Invest(h1, prov.CenterIPInput, 200)
	p.Deliver(h1, 400)

	// Packet 2: 100ns of rx-intr, dropped at ipintrq.
	h2 := p.Attach(2, 10)
	p.Invest(h2, prov.CenterRxIntr, 100)
	p.Drop(h2, prov.ReasonIPIntrQFull, 120)

	if got := p.UsefulCycles(); got != 300 {
		t.Fatalf("useful = %v, want 300", got)
	}
	if got := p.WastedCycles(); got != 100 {
		t.Fatalf("wasted = %v, want 100", got)
	}
	if got := p.WastedByCenter(prov.CenterRxIntr); got != 100 {
		t.Fatalf("wasted rx-intr = %v, want 100", got)
	}
	if got := p.UsefulByCenter(prov.CenterIPInput); got != 200 {
		t.Fatalf("useful ip-input = %v, want 200", got)
	}
	if got := p.WastedFrac(); got != 0.25 {
		t.Fatalf("wasted frac = %v, want 0.25", got)
	}
	if got := p.DropCount(prov.ReasonIPIntrQFull); got != 1 {
		t.Fatalf("drop count = %d, want 1", got)
	}
	if got := p.DropInvested(prov.ReasonIPIntrQFull); got != 100 {
		t.Fatalf("drop invested = %v, want 100", got)
	}
	if p.Live() != 0 {
		t.Fatalf("live = %d, want 0", p.Live())
	}
}

// Stale and zero handles must be inert: the slot is reused for another
// packet and old handles must not corrupt its ledger.
func TestStaleHandleNoOp(t *testing.T) {
	p := New()
	h := p.Attach(1, 0)
	p.Invest(h, prov.CenterRxIntr, 50)
	p.Drop(h, prov.ReasonOutQFull, 10)

	// Same slot, new generation.
	p.Invest(h, prov.CenterRxIntr, 999)
	p.Deliver(h, 20)
	p.Drop(h, prov.ReasonOutQFull, 20)
	var zero prov.Handle
	p.Invest(zero, prov.CenterRxIntr, 999)
	p.Deliver(zero, 20)

	if got := p.WastedCycles(); got != 50 {
		t.Fatalf("wasted = %v, want 50 (stale ops leaked)", got)
	}
	if got := p.UsefulCycles(); got != 0 {
		t.Fatalf("useful = %v, want 0 (stale ops leaked)", got)
	}
	if got := p.DropCount(prov.ReasonOutQFull); got != 1 {
		t.Fatalf("drop count = %d, want 1", got)
	}
	if got := p.Dwell(prov.StageRxRingAccept).Count(); got != 1 {
		t.Fatalf("rx-ring-accept dwell count = %d, want 1 (stale ops closed a stage)", got)
	}
}

// A drop through the zero handle is a packet that was never attached
// and consumed no CPU: it is counted in the drop table with nothing
// invested, and touches no ledger, record or dwell histogram.
func TestZeroHandleDropCounted(t *testing.T) {
	p := New()
	inflight := p.Attach(1, 0)
	p.Invest(inflight, prov.CenterRxIntr, 40)
	p.Drop(prov.Handle{}, prov.ReasonRxRingFull, 10)
	p.Drop(prov.Handle{}, prov.ReasonRxRingFull, 20)

	if got := p.DropCount(prov.ReasonRxRingFull); got != 2 {
		t.Fatalf("drop count = %d, want 2", got)
	}
	if got := p.DropInvested(prov.ReasonRxRingFull); got != 0 {
		t.Fatalf("drop invested = %v, want 0", got)
	}
	if p.WastedCycles() != 0 || p.Live() != 1 {
		t.Fatalf("wasted = %v, live = %d; want 0 and 1", p.WastedCycles(), p.Live())
	}
	for s := prov.Stage(0); s < prov.NumStages; s++ {
		if n := p.Dwell(s).Count(); n != 0 {
			t.Fatalf("dwell %v count = %d, want 0", s, n)
		}
	}
}

func TestPoolGrowsAndRecycles(t *testing.T) {
	p := New()
	handles := make([]prov.Handle, 0, initialRecords*2+5)
	for i := 0; i < initialRecords*2+5; i++ {
		handles = append(handles, p.Attach(uint64(i), 0))
	}
	if p.Live() != len(handles) {
		t.Fatalf("live = %d, want %d", p.Live(), len(handles))
	}
	for _, h := range handles {
		p.Deliver(h, 100)
	}
	if p.Live() != 0 {
		t.Fatalf("live = %d after delivering all", p.Live())
	}
	// Recycled slots still work.
	h := p.Attach(99, 200)
	p.Invest(h, prov.CenterScreend, 7)
	p.Drop(h, prov.ReasonScreendReject, 210)
	if got := p.WastedByCenter(prov.CenterScreend); got != 7 {
		t.Fatalf("recycled slot wasted = %v, want 7", got)
	}
}

func TestDwellHistograms(t *testing.T) {
	p := New()
	h := p.Attach(1, 100)
	p.Stage(h, prov.StageIPIntrQEnqueue, 160) // 60ns in rx-ring-accept
	p.Stage(h, prov.StageSoftIPInput, 460)    // 300ns in ipintrq
	p.Deliver(h, 480)                         // 20ns in softint

	if got := p.Dwell(prov.StageRxRingAccept).Count(); got != 1 {
		t.Fatalf("rx-ring-accept dwell count = %d", got)
	}
	if got := p.Dwell(prov.StageIPIntrQEnqueue).Max(); got != 300 {
		t.Fatalf("ipintrq dwell max = %v, want 300", got)
	}
	if got := p.Dwell(prov.StageSoftIPInput).Count(); got != 1 {
		t.Fatalf("softint dwell count = %d", got)
	}
}

func TestDetectorEntersAndExits(t *testing.T) {
	p := New()
	var stream []Diagnosis
	p.SetOnDiagnosis(func(d Diagnosis) { stream = append(stream, d) })

	now := sim.Time(0)
	tick := func(delivered uint64, wasteEach sim.Duration) {
		now = now.Add(sim.Millisecond)
		if wasteEach > 0 {
			h := p.Attach(uint64(now), now)
			p.Invest(h, prov.CenterRxIntr, wasteEach)
			p.Drop(h, prov.ReasonIPIntrQFull, now)
		}
		p.Tick(now, delivered)
	}

	// Healthy phase: deliveries progress.
	tick(0, 0) // baseline
	for i := uint64(1); i <= 5; i++ {
		tick(i, 50)
	}
	if p.Livelocked() {
		t.Fatal("livelocked during healthy phase")
	}
	// Livelock phase: waste accumulates, output frozen.
	for i := 0; i < livelockStreak-1; i++ {
		tick(5, 50)
	}
	if p.Livelocked() {
		t.Fatal("declared livelock one tick early")
	}
	tick(5, 50)
	if !p.Livelocked() {
		t.Fatal("did not declare livelock after streak")
	}
	// Recovery: one delivery clears it.
	tick(6, 0)
	if p.Livelocked() {
		t.Fatal("did not clear livelock on delivery")
	}

	if len(stream) != 2 || !stream[0].Livelocked || stream[1].Livelocked {
		t.Fatalf("diagnosis stream = %v", stream)
	}
	if stream[0].Starved != sim.Duration(livelockStreak-1)*sim.Millisecond {
		t.Fatalf("entry starved = %v", stream[0].Starved)
	}
	if got := p.DiagnosisTotal(); got != 2 {
		t.Fatalf("diagnosis total = %d", got)
	}
	if len(p.Diagnoses()) != 2 {
		t.Fatalf("retained diagnoses = %d", len(p.Diagnoses()))
	}
}

// Idle periods (no waste, no deliveries) must not count toward the
// livelock streak.
func TestDetectorIgnoresIdle(t *testing.T) {
	p := New()
	now := sim.Time(0)
	for i := 0; i < livelockStreak*3; i++ {
		now = now.Add(sim.Millisecond)
		p.Tick(now, 0)
	}
	if p.Livelocked() {
		t.Fatal("idle run diagnosed as livelock")
	}
}

func TestWriteFoldedAndTables(t *testing.T) {
	p := New()
	h := p.Attach(1, 0)
	p.Invest(h, prov.CenterRxIntr, 5*sim.Microsecond)
	p.Deliver(h, 100)
	h = p.Attach(2, 0)
	p.Invest(h, prov.CenterRxIntr, 3*sim.Microsecond)
	p.Drop(h, prov.ReasonIPIntrQFull, 200)
	p.Drop(prov.Handle{}, prov.ReasonRxRingFull, 200)

	var folded strings.Builder
	if err := p.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	out := folded.String()
	for _, want := range []string{
		"pkt;useful;rx-intr 5\n",
		"pkt;wasted;rx-intr 3\n",
		"drop;ipintrq-full 3\n",
		"drop;rx-ring-full 0\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("folded output missing %q:\n%s", want, out)
		}
	}

	var table strings.Builder
	if err := p.WriteDropTable(&table); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "ipintrq-full") || !strings.Contains(table.String(), "rx-ring-full") {
		t.Fatalf("drop table:\n%s", table.String())
	}
	// ipintrq-full invested more, so it must rank first.
	if strings.Index(table.String(), "ipintrq-full") > strings.Index(table.String(), "rx-ring-full") {
		t.Fatalf("drop table not ranked by invested cycles:\n%s", table.String())
	}
}

func TestResetStats(t *testing.T) {
	p := New()
	h := p.Attach(1, 0)
	p.Invest(h, prov.CenterRxIntr, 40)
	p.Drop(h, prov.ReasonOutQFull, 10)
	// In-flight across the reset boundary.
	inflight := p.Attach(2, 20)
	p.Invest(inflight, prov.CenterRxIntr, 10)

	p.ResetStats()
	if p.WastedCycles() != 0 || p.DropCount(prov.ReasonOutQFull) != 0 {
		t.Fatal("ResetStats left ledger entries")
	}
	if p.Live() != 1 {
		t.Fatalf("live = %d, want 1", p.Live())
	}
	p.Invest(inflight, prov.CenterIPInput, 30)
	p.Deliver(inflight, 50)
	if got := p.UsefulCycles(); got != 40 {
		t.Fatalf("useful after reset = %v, want 40 (pre-reset investment kept)", got)
	}
}
