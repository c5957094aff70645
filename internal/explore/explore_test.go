package explore

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"livelock/internal/netstack"
	"livelock/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/state-spaces.golden")

// stateSpacesPath pins every built-in scenario's explored state space.
// After an intentional change to a scenario or to the kernel's schedule
// regenerate it with `go test ./internal/explore -run ExhaustsBuiltins -update`.
const stateSpacesPath = "testdata/state-spaces.golden"

// stateSpace is the part of a Report that measures the explored space.
type stateSpace struct {
	Executions   int    `json:"executions"`
	Events       uint64 `json:"events"`
	Sites        uint64 `json:"choice_sites"`
	UniqueStates int    `json:"unique_states"`
	DedupPrunes  int    `json:"dedup_prunes"`
	SleepPrunes  int    `json:"sleep_prunes"`
}

// TestExploreRegressions replays every committed counterexample under
// testdata/ against the current kernel. Each script once drove its
// scenario into an invariant violation; after the fix it must run
// clean, and the recorded choice sites must still line up with the
// sites the execution encounters (mismatches mean the script has
// drifted from the code and should be regenerated).
func TestExploreRegressions(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no counterexample scripts under testdata/")
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			v, err := DecodeViolation(data)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := ScenarioByName(v.Scenario)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Replay(sc, v, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Mismatches != 0 {
				t.Errorf("%d script mismatches: the counterexample has drifted from the code", res.Mismatches)
			}
			if res.Violation != nil {
				t.Fatalf("recorded %s violation reproduces: %s",
					res.Violation.Invariant, res.Violation.Detail)
			}
		})
	}
}

// TestExploreExhaustsBuiltins proves the headline property: every
// built-in scenario's bounded schedule space is fully enumerated and
// every reachable state satisfies every invariant. intrloss alone
// covers three concurrent sources with six interrupt-loss choice
// points; feedback and cyclelimit add consumer pauses, stalls, and the
// cycle limiter; coalesce adds interrupt-coalescing races, adversarial
// reordering, and a TCP transfer; lockorder runs a two-core kernel
// with screend under the armed lock-discipline checker. Each space's
// size must match testdata/state-spaces.golden: a kernel change that
// adds, removes or reorders a schedule point shows up here.
func TestExploreExhaustsBuiltins(t *testing.T) {
	if testing.Short() {
		t.Skip("full enumeration in short mode")
	}
	got := make(map[string]stateSpace)
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			rep, err := Explore(sc, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.ViolationCount != 0 {
				t.Fatalf("%d violation(s); first: %+v", rep.ViolationCount, rep.Violations[0])
			}
			if !rep.Exhausted {
				t.Fatalf("not exhausted within bounds (truncated=%v, executions=%d)",
					rep.Truncated, rep.Executions)
			}
			if rep.Executions < 2 {
				t.Fatalf("only %d execution(s): the scenario has no concurrency to explore", rep.Executions)
			}
			got[sc.Name] = stateSpace{
				Executions: rep.Executions, Events: rep.Events, Sites: rep.Sites,
				UniqueStates: rep.UniqueStates, DedupPrunes: rep.DedupPrunes, SleepPrunes: rep.SleepPrunes,
			}
		})
	}
	if t.Failed() {
		return
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(stateSpacesPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(stateSpacesPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]stateSpace
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: pinned but no longer a built-in scenario", name)
		} else if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: state space %+v, pinned %+v", name, g, w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: built-in scenario has no pinned state space", name)
		}
	}
}

// TestExploreDetectsSeededViolation drives the detection path end to
// end without relying on a real kernel bug: an impossible progress
// window must trip on the default schedule, and the emitted script
// must round-trip through the corpus format and reproduce under
// Replay.
func TestExploreDetectsSeededViolation(t *testing.T) {
	sc, err := ScenarioByName("intrloss")
	if err != nil {
		t.Fatal(err)
	}
	sc.ProgressWindow = 10 * sim.Microsecond // impossible: any buffering violates
	sc.Name = "intrloss"                     // replay resolves by name; keep it decodable
	rep, err := Explore(sc, Options{StopAtFirst: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ViolationCount == 0 {
		t.Fatal("impossible progress window produced no violation")
	}
	v := rep.Violations[0]
	if v.Invariant != "progress" {
		t.Fatalf("expected a progress violation, got %s", v.Invariant)
	}

	data, err := v.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeViolation(data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(sc, decoded, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("replay of a live counterexample did not reproduce the violation")
	}
	if res.Violation.Invariant != "progress" || res.Mismatches != 0 {
		t.Fatalf("replay diverged: %+v (mismatches=%d)", res.Violation, res.Mismatches)
	}
}

// TestExploreEnumeratesTies checks the enumeration machinery itself:
// with the sleep-set oracle disabled the explorer must visit strictly
// more schedules than with it, and both must agree there is no
// violation.
func TestExploreEnumeratesTies(t *testing.T) {
	with, err := Explore(mustScenario(t, "intrloss"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	scNo := mustScenario(t, "intrloss")
	scNo.Independent = nil
	without, err := Explore(scNo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if with.SleepPrunes == 0 {
		t.Error("independence oracle never pruned a commuting ordering")
	}
	if without.Executions <= with.Executions {
		t.Errorf("oracle-less exploration ran %d executions, pruned ran %d; pruning saved nothing",
			without.Executions, with.Executions)
	}
	if with.ViolationCount != 0 || without.ViolationCount != 0 {
		t.Errorf("violations disagree: with=%d without=%d", with.ViolationCount, without.ViolationCount)
	}
	if !without.Exhausted {
		t.Error("oracle-less exploration did not exhaust")
	}
}

func tieFnA(_, _ any) {}
func tieFnB(_, _ any) {}

// TestFingerprintHashesTieSet: at a tie site the engine holds the tied
// events out of its queue, so the fingerprint must hash them from the
// tie set. Two states that differ only in their tie sets (which events
// tie, or which packet one carries) must hash differently, or dedup
// prunes a state it never explored; the tie set's order must not
// matter, as the pending set's does not.
func TestFingerprintHashesTieSet(t *testing.T) {
	opts := Options{}.withDefaults()
	sc := mustScenario(t, "smpcontend")
	w := newWorld(sc, &opts, &controller{opts: &opts, sc: sc})
	p1, p2 := &netstack.Packet{ID: 1}, &netstack.Packet{ID: 2}
	at := w.eng.Now().Add(sim.Microsecond)
	tieSet := func(ties ...sim.Tie) uint64 { return w.fingerprint(at, ties) }

	base := tieSet(sim.Tie{Fn: tieFnA, Arg: w}, sim.Tie{Fn: tieFnB, Arg: w, Arg2: p1})
	if got := tieSet(sim.Tie{Fn: tieFnB, Arg: w, Arg2: p1}, sim.Tie{Fn: tieFnA, Arg: w}); got != base {
		t.Error("the same tie set in another order hashes differently")
	}
	for name, other := range map[string]uint64{
		"no tie set":       tieSet(),
		"another event":    tieSet(sim.Tie{Fn: tieFnA, Arg: w}, sim.Tie{Fn: tieFnA, Arg: w, Arg2: p1}),
		"another packet":   tieSet(sim.Tie{Fn: tieFnA, Arg: w}, sim.Tie{Fn: tieFnB, Arg: w, Arg2: p2}),
		"one event fewer":  tieSet(sim.Tie{Fn: tieFnA, Arg: w}),
		"another due time": w.fingerprint(at.Add(1), []sim.Tie{{Fn: tieFnA, Arg: w}, {Fn: tieFnB, Arg: w, Arg2: p1}}),
	} {
		if other == base {
			t.Errorf("%s: states that differ only in their tie sets hash the same", name)
		}
	}
}

// TestExploreCoalesceScenario pins the coalesce scenario's exploration
// shape: the space is exhausted with real branching (reorder choices ×
// holdoff-expiry/count-trigger/arrival ties), no schedule violates any
// invariant — in particular, on every branch the transfer completes and
// the sender never retransmits without an injected reorder — and the
// state-dedup cache earns its keep on the converging schedules.
func TestExploreCoalesceScenario(t *testing.T) {
	rep, err := Explore(mustScenario(t, "coalesce"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ViolationCount != 0 {
		t.Fatalf("%d violation(s); first: %+v", rep.ViolationCount, rep.Violations[0])
	}
	if !rep.Exhausted {
		t.Fatalf("not exhausted within bounds (truncated=%v, executions=%d)",
			rep.Truncated, rep.Executions)
	}
	// Two two-way reorder choices alone give four schedules; the
	// coalescing and arrival ties multiply them.
	if rep.Executions < 8 {
		t.Fatalf("only %d executions: the coalescing/reorder races did not branch", rep.Executions)
	}
	if rep.DedupPrunes == 0 {
		t.Error("no dedup prunes: converging schedules never collided in the state cache")
	}
}

// TestExploreReorderChoiceBranches isolates the wire-reorder choice
// point: with the background sources removed, the only concurrency left
// is the adversary's hold-or-deliver decisions on the data wire and the
// device races they cascade into — the explorer must still branch and
// every branch must deliver the transfer and keep the ledger balanced
// (a held frame is displaced, never lost).
func TestExploreReorderChoiceBranches(t *testing.T) {
	sc := mustScenario(t, "coalesce")
	sc.Sources = 1 // TCP flow only; ReorderBudget=2 remains the sole fault
	rep, err := Explore(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ViolationCount != 0 {
		t.Fatalf("%d violation(s); first: %+v", rep.ViolationCount, rep.Violations[0])
	}
	if !rep.Exhausted {
		t.Fatalf("not exhausted (executions=%d)", rep.Executions)
	}
	if rep.Executions < 4 {
		t.Fatalf("only %d executions: the reorder choice point never branched", rep.Executions)
	}
}

// TestExploreDetectsSpuriousRtx proves the seventh invariant is not
// vacuous: an RTO shorter than the coalescing holdoff plus the ACK
// round trip makes the sender time out and retransmit with nothing
// lost and nothing reordered — exactly the no-loss-signal recovery the
// invariant forbids — and it must trip on the default schedule.
func TestExploreDetectsSpuriousRtx(t *testing.T) {
	sc := mustScenario(t, "coalesce")
	sc.TCP.RTO = 100 * sim.Microsecond
	rep, err := Explore(sc, Options{StopAtFirst: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ViolationCount == 0 {
		t.Fatal("sub-RTT retransmission timeout produced no violation")
	}
	v := rep.Violations[0]
	if v.Invariant != "spurious-rtx" {
		t.Fatalf("expected a spurious-rtx violation, got %s: %s", v.Invariant, v.Detail)
	}
	// The counterexample must survive the corpus round trip and
	// reproduce under Replay, like any other violation.
	data, err := v.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeViolation(data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(sc, decoded, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil || res.Violation.Invariant != "spurious-rtx" {
		t.Fatalf("replay did not reproduce the spurious-rtx violation: %+v", res.Violation)
	}
}

func mustScenario(t *testing.T, name string) *Scenario {
	t.Helper()
	sc, err := ScenarioByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestParseInvariants(t *testing.T) {
	cases := []struct {
		in   string
		want InvariantSet
		err  bool
	}{
		{"all", InvAll, false},
		{"", InvAll, false},
		{"progress", InvProgress, false},
		{"progress,budget", InvProgress | InvBudget, false},
		{"hysteresis, handles", InvHysteresis | InvHandles, false},
		{"spurious-rtx", InvNoSpuriousRtx, false},
		{"lockdep", InvLockdep, false},
		{"bogus", 0, true},
	}
	for _, c := range cases {
		got, err := ParseInvariants(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseInvariants(%q) error = %v, want error = %v", c.in, err, c.err)
			continue
		}
		if !c.err && got != c.want {
			t.Errorf("ParseInvariants(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if s := (InvProgress | InvBudget).String(); s != "progress,budget" {
		t.Errorf("String() = %q", s)
	}
	if s := InvAll.String(); s != "all" {
		t.Errorf("InvAll.String() = %q", s)
	}
}

func TestTrimPicks(t *testing.T) {
	path := []Pick{
		{Kind: "tie", Alt: 0, N: 3},
		{Kind: "tie", Alt: 2, N: 3},
		{Kind: "tie", Alt: 0, N: 2},
		{Kind: "tie", Alt: 0, N: 2},
	}
	got := trimPicks(path)
	if len(got) != 2 || got[1].Alt != 2 {
		t.Fatalf("trimPicks kept %d picks, want 2 ending in the last non-default", len(got))
	}
	if len(trimPicks(nil)) != 0 {
		t.Fatal("trimPicks(nil) not empty")
	}
}

func TestDecodeViolationRejectsBadScripts(t *testing.T) {
	bad := []string{
		`{"scenario":"nope","invariant":"progress","detail":"","when_ns":0,"picks":[]}`,
		`{"scenario":"intrloss","invariant":"bogus","detail":"","when_ns":0,"picks":[]}`,
		`{"scenario":"intrloss","invariant":"progress","detail":"","when_ns":0,"picks":[{"kind":"tie","alt":3,"n":2}]}`,
		`{"scenario":"intrloss","invariant":"progress","detail":"","when_ns":0,"picks":[],"extra":1}`,
		`{"scenario":"intrloss","invariant":"progress","detail":"","when_ns":-5,"picks":[]}`,
	}
	for _, s := range bad {
		if _, err := DecodeViolation([]byte(s)); err == nil {
			t.Errorf("accepted bad script: %s", s)
		} else if !strings.Contains(err.Error(), "explore:") {
			t.Errorf("unhelpful error for %s: %v", s, err)
		}
	}
	good := `{"scenario":"intrloss","invariant":"progress","detail":"d","when_ns":1,` +
		`"picks":[{"kind":"tie","alt":1,"n":2,"label":"x"}]}`
	if _, err := DecodeViolation([]byte(good)); err != nil {
		t.Errorf("rejected good script: %v", err)
	}
}

// TestLockdepInvariantReports drives the lockdep detection path without
// relying on a real locking bug: every world arms cpu.Lockdep with a
// collector instead of the default panic, so a violation raised by the
// checker must surface through check() as the "lockdep" invariant.
func TestLockdepInvariantReports(t *testing.T) {
	sc, err := ScenarioByName("lockorder")
	if err != nil {
		t.Fatal(err)
	}
	opts := &Options{Invariants: InvAll}
	ctl := &controller{opts: opts, sc: sc}
	w := newWorld(sc, opts, ctl)
	ld := w.r.Lockdep()
	if ld == nil {
		t.Fatal("lockorder world did not arm the lock-discipline checker")
	}
	if inv, detail := w.check(); inv != "" {
		t.Fatalf("fresh world violates %s: %s", inv, detail)
	}
	// A touch of an object nobody registered is the simplest violation;
	// the collector must capture it rather than panic the process.
	var stray int
	ld.Check(&stray)
	inv, detail := w.check()
	if inv != "lockdep" {
		t.Fatalf("check() = %q (%s), want lockdep", inv, detail)
	}
	if !strings.Contains(detail, "unregistered") {
		t.Fatalf("detail %q does not describe the violation", detail)
	}
}
