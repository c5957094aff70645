package trace

import (
	"bytes"
	"strings"
	"testing"

	"livelock/internal/prov"
	"livelock/internal/sim"
)

func TestTracerRetainsInOrder(t *testing.T) {
	tr := New(4)
	for i := 0; i < 3; i++ {
		tr.Emit(sim.Time(i), prov.StageRxRingAccept, prov.ReasonNone, uint64(i))
	}
	recs := tr.Records()
	if len(recs) != 3 {
		t.Fatalf("len = %d", len(recs))
	}
	for i, r := range recs {
		if r.Pkt != uint64(i) {
			t.Fatalf("out of order: %v", recs)
		}
	}
}

func TestTracerEvictsOldest(t *testing.T) {
	tr := New(3)
	for i := 0; i < 10; i++ {
		tr.Emit(0, prov.StageRxRingAccept, prov.ReasonNone, uint64(i))
	}
	recs := tr.Records()
	if len(recs) != 3 {
		t.Fatalf("len = %d", len(recs))
	}
	want := []uint64{7, 8, 9}
	for i, r := range recs {
		if r.Pkt != want[i] {
			t.Fatalf("records = %v, want pkts %v", recs, want)
		}
	}
	if tr.Total() != 10 {
		t.Fatalf("Total = %d", tr.Total())
	}
}

func TestTracerFilter(t *testing.T) {
	tr := New(10)
	tr.Emit(0, prov.StageRxRingAccept, prov.ReasonNone, 1)
	tr.Emit(1, prov.StageForwarded, prov.ReasonNone, 2)
	tr.Emit(2, prov.StageTxDescriptor, prov.ReasonNone, 1)
	got := tr.Filter(1)
	if len(got) != 2 || got[0].Stage != prov.StageRxRingAccept || got[1].Stage != prov.StageTxDescriptor {
		t.Fatalf("Filter = %v", got)
	}
}

// Drop records carry the reason and render under the reason's canonical
// stage text, so "which stage killed it" is derivable from either field.
func TestTracerEmitDrop(t *testing.T) {
	tr := New(4)
	tr.Emit(100, prov.ReasonIPIntrQFull.Stage(), prov.ReasonIPIntrQFull, 9)
	recs := tr.Records()
	if len(recs) != 1 {
		t.Fatalf("len = %d", len(recs))
	}
	r := recs[0]
	if r.Reason != prov.ReasonIPIntrQFull || r.Stage != prov.StageIPIntrQDrop {
		t.Fatalf("record = %+v", r)
	}
	if !strings.Contains(r.String(), "ipintrq DROP (full)") {
		t.Fatalf("String = %q", r.String())
	}
	// Non-drop records carry ReasonNone.
	tr.Emit(101, prov.StageForwarded, prov.ReasonNone, 10)
	if got := tr.Records()[1].Reason; got != prov.ReasonNone {
		t.Fatalf("non-drop reason = %v", got)
	}
}

func TestTracerWriteTo(t *testing.T) {
	tr := New(4)
	tr.Emit(1500, prov.StageRxRingAccept, prov.ReasonNone, 7)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "pkt#7") || !strings.Contains(buf.String(), "rx-ring accept") {
		t.Fatalf("output %q", buf.String())
	}
}

func TestTracerValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity did not panic")
		}
	}()
	New(0)
}
