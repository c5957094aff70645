package prov

import (
	"strings"
	"testing"
)

// Every enum value must have a distinct, non-placeholder text: the
// tables are indexed by value, so a skew between the const block and a
// table would silently mislabel records.
func TestCenterStrings(t *testing.T) {
	seen := map[string]bool{}
	for c := Center(0); c < NumCenters; c++ {
		s := c.String()
		if s == "" || strings.Contains(s, "?") {
			t.Fatalf("center %d has placeholder text %q", c, s)
		}
		if seen[s] {
			t.Fatalf("duplicate center slug %q", s)
		}
		seen[s] = true
	}
	if Center(NumCenters).String() != "center?" {
		t.Fatalf("out-of-range center not flagged")
	}
}

func TestStageStrings(t *testing.T) {
	seenText := map[string]bool{}
	seenSlug := map[string]bool{}
	for s := Stage(0); s < NumStages; s++ {
		text, slug := s.String(), s.Slug()
		if text == "" || text == "stage?" || slug == "" || slug == "stage?" {
			t.Fatalf("stage %d has placeholder text %q / slug %q", s, text, slug)
		}
		if seenText[text] || seenSlug[slug] {
			t.Fatalf("duplicate stage text %q / slug %q", text, slug)
		}
		seenText[text] = true
		seenSlug[slug] = true
	}
	// Pin the legacy trace texts downstream tooling greps for.
	for stage, want := range map[Stage]string{
		StageRxRingDrop:   "rx-ring DROP (full)",
		StageIPIntrQDrop:  "ipintrq DROP (full) — device work wasted",
		StageScreendQDrop: "screend queue DROP (full)",
		StageSoftIPInput:  "softint ip_input",
		StageDelivered:    "delivered on stub Ethernet",
	} {
		if got := stage.String(); got != want {
			t.Fatalf("stage %d text = %q, want %q", stage, got, want)
		}
	}
}

// Every drop reason except the fault-plane and none entries must map to
// a real trace stage, and that stage must be a drop-flavored one.
func TestReasonStageMapping(t *testing.T) {
	for d := DropReason(1); d < NumReasons; d++ {
		st := d.Stage()
		switch d {
		case ReasonFaultWireDrop, ReasonFaultStall, ReasonFaultReset:
			if st != StageNone {
				t.Fatalf("fault reason %v mapped to stage %v; fault drops happen outside the traced path", d, st)
			}
		default:
			if st == StageNone {
				t.Fatalf("reason %v has no trace stage", d)
			}
		}
	}
}

// Exactly the four stages that hand a packet out of the router deliver,
// and no drop's stage does.
func TestDeliveringStages(t *testing.T) {
	want := map[Stage]bool{StageDelivered: true, StageRevDelivered: true,
		StageSockBufAccept: true, StageTCPAccept: true}
	for s := Stage(0); s < NumStages; s++ {
		if s.Delivers() != want[s] {
			t.Errorf("stage %v: Delivers() = %v", s, s.Delivers())
		}
	}
	for d := DropReason(0); d < NumReasons; d++ {
		if d.Stage().Delivers() {
			t.Errorf("reason %v drops under delivering stage %v", d, d.Stage())
		}
	}
}

func TestZeroHandleInvalid(t *testing.T) {
	var h Handle
	if !h.Zero() {
		t.Fatal("zero handle must report Zero")
	}
	if (Handle{Idx: 3, Gen: 7}).Zero() {
		t.Fatal("live handle must not report Zero")
	}
}
