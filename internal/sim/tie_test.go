package sim

import "testing"

// record appends its label to the shared trace. Top-level function so
// tie-breaker tests exercise the closure-free AtCall path the explorer
// uses.
func record(a, b any) {
	trace := a.(*[]string)
	*trace = append(*trace, b.(string))
}

func TestTieBreakerNilKeepsFIFO(t *testing.T) {
	e := NewEngine()
	var got []string
	e.AtCall(10, record, &got, "a")
	e.AtCall(10, record, &got, "b")
	e.AtCall(10, record, &got, "c")
	e.Run(20)
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestTieBreakerZeroPickMatchesFIFO(t *testing.T) {
	e := NewEngine()
	var got []string
	calls := 0
	e.SetTieBreaker(func(now Time, ties []Tie) int {
		calls++
		if now != 10 {
			t.Fatalf("tie at %v, want 10", now)
		}
		for i := 1; i < len(ties); i++ {
			if ties[i].Seq <= ties[i-1].Seq {
				t.Fatalf("ties not in seq order: %v then %v", ties[i-1].Seq, ties[i].Seq)
			}
		}
		return 0
	})
	e.AtCall(10, record, &got, "a")
	e.AtCall(10, record, &got, "b")
	e.AtCall(10, record, &got, "c")
	e.Run(20)
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	// First fire sees a 3-way tie, second a 2-way; the final event is
	// alone and must not consult the breaker.
	if calls != 2 {
		t.Fatalf("tie-breaker consulted %d times, want 2", calls)
	}
}

func TestTieBreakerReordersTies(t *testing.T) {
	e := NewEngine()
	var got []string
	e.SetTieBreaker(func(_ Time, ties []Tie) int { return len(ties) - 1 })
	e.AtCall(10, record, &got, "a")
	e.AtCall(10, record, &got, "b")
	e.AtCall(10, record, &got, "c")
	e.AtCall(15, record, &got, "d") // different instant: untouched
	e.Run(20)
	want := []string{"c", "b", "a", "d"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

// spawnSameInstant fires and schedules a child at the current instant,
// which must join the still-unfired events in the next tie set.
func spawnSameInstant(a, b any) {
	e := a.(*spawnState)
	*e.trace = append(*e.trace, "parent")
	e.eng.AtCall(e.eng.Now(), record, e.trace, "child")
	_ = b
}

type spawnState struct {
	eng   *Engine
	trace *[]string
}

func TestTieBreakerSeesSameInstantReschedule(t *testing.T) {
	e := NewEngine()
	var got []string
	st := &spawnState{eng: e, trace: &got}
	var tieSizes []int
	e.SetTieBreaker(func(_ Time, ties []Tie) int {
		tieSizes = append(tieSizes, len(ties))
		if len(tieSizes) == 1 {
			return 0 // fire the parent first
		}
		return len(ties) - 1 // then prefer the newest event
	})
	e.AtCall(10, spawnSameInstant, st, nil)
	e.AtCall(10, record, &got, "sibling")
	e.Run(20)
	// Firing order: 2-way tie {parent, sibling} → parent chosen; parent
	// spawns child at t=10, so next tie is {sibling, child} → child
	// chosen (newest); sibling fires alone.
	want := []string{"parent", "child", "sibling"}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if len(tieSizes) != 2 || tieSizes[0] != 2 || tieSizes[1] != 2 {
		t.Fatalf("tie sizes %v, want [2 2]", tieSizes)
	}
}

func TestTieBreakerSkipsCancelled(t *testing.T) {
	e := NewEngine()
	var got []string
	e.AtCall(10, record, &got, "a")
	h := e.AtCall(10, record, &got, "x")
	e.AtCall(10, record, &got, "b")
	e.Cancel(h)
	var sizes []int
	e.SetTieBreaker(func(_ Time, ties []Tie) int {
		sizes = append(sizes, len(ties))
		for _, tie := range ties {
			if tie.Arg == nil || tie.Fn == nil {
				t.Fatal("cancelled or zeroed event offered to tie-breaker")
			}
		}
		return 0
	})
	e.Run(20)
	want := []string{"a", "b"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("order %v, want %v", got, want)
	}
	if len(sizes) != 1 || sizes[0] != 2 {
		t.Fatalf("tie sizes %v, want [2]", sizes)
	}
}

func TestTieBreakerOutOfRangePanics(t *testing.T) {
	e := NewEngine()
	var got []string
	e.SetTieBreaker(func(_ Time, ties []Tie) int { return len(ties) })
	e.AtCall(10, record, &got, "a")
	e.AtCall(10, record, &got, "b")
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range pick did not panic")
		}
	}()
	e.Run(20)
}

// TestTieBreakerRestoresOrderAfterPick verifies the unchosen events keep
// their original seq keys: a one-shot reorder must not perturb
// subsequent FIFO order among the survivors.
func TestTieBreakerRestoresOrderAfterPick(t *testing.T) {
	e := NewEngine()
	var got []string
	first := true
	e.SetTieBreaker(func(_ Time, ties []Tie) int {
		if first {
			first = false
			return len(ties) - 1
		}
		return 0
	})
	e.AtCall(10, record, &got, "a")
	e.AtCall(10, record, &got, "b")
	e.AtCall(10, record, &got, "c")
	e.AtCall(10, record, &got, "d")
	e.Run(20)
	want := []string{"d", "a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

// TestTieBreakerHoldsTieSetOut pins what the breaker sees of the engine
// while it decides: the tie set is out of the queue, so VisitPending
// shows only the later events, and Pending still counts the whole set.
// Exploration fingerprints the queue from inside the breaker, so its
// pinned state spaces rest on this view.
func TestTieBreakerHoldsTieSetOut(t *testing.T) {
	e := NewEngine()
	var got []string
	checked := false
	e.SetTieBreaker(func(_ Time, ties []Tie) int {
		if checked {
			return 0
		}
		checked = true
		var visible []Time
		e.VisitPending(func(when Time, _ Callback, _, _ any) { visible = append(visible, when) })
		if len(ties) != 3 || e.Pending() != 4 || len(visible) != 1 || visible[0] != 20 {
			t.Fatalf("in the breaker: %d ties, Pending %d, visible %v; want 3, 4, [20]",
				len(ties), e.Pending(), visible)
		}
		return 1
	})
	e.AtCall(10, record, &got, "a")
	e.AtCall(10, record, &got, "b")
	e.AtCall(20, record, &got, "late")
	e.AtCall(10, record, &got, "c")
	e.Run(30)
	want := []string{"b", "a", "c", "late"}
	for i := range want {
		if !checked || i >= len(got) || got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

// TestTieBreakerSchedulingPanics: a breaker that schedules an event
// would write into the held-out tie set, so the engine refuses it.
func TestTieBreakerSchedulingPanics(t *testing.T) {
	e := NewEngine()
	var got []string
	e.SetTieBreaker(func(now Time, _ []Tie) int {
		e.AtCall(now+5, record, &got, "from-breaker")
		return 0
	})
	e.AtCall(10, record, &got, "a")
	e.AtCall(10, record, &got, "b")
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling from the tie-breaker did not panic")
		}
	}()
	e.Run(20)
}
