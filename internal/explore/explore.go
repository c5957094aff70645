// Package explore is a bounded model checker for the simulated router:
// it systematically enumerates the schedules a scenario can take —
// every ordering of same-instant events and every outcome of every
// armed fault choice point — and checks the livelock-freedom
// invariants in each reachable state.
//
// The checker is stateless in the Godefroid sense: an execution is a
// fresh deterministic world (internal/kernel under internal/sim)
// replayed from a prefix of recorded choices; at each choice site at
// or beyond the prefix it takes the default alternative and records
// the site, and the driver later re-executes with each non-default
// alternative appended. Two prunings keep the tree tractable without
// losing soundness: a state-fingerprint cache cuts executions that
// re-enter a previously explored state with at least as much depth
// budget remaining, and an optional independence oracle (a sleep-set
// degenerate for commuting same-instant events) skips orderings whose
// effect is identical to one already scheduled.
//
// A violation is emitted as a minimal replayable schedule script — the
// choice prefix with trailing defaults trimmed — which Replay can
// re-execute as a single run, the form in which counterexamples are
// committed under testdata/ as regression tests.
package explore

import (
	"fmt"
	"sort"
	"strings"

	"livelock/internal/sim"
)

// InvariantSet selects which invariants a run checks, as a bitmask.
type InvariantSet uint

const (
	// InvProgress: whenever frames are buffered anywhere in the system,
	// some sink delivery happens within the scenario's ProgressWindow,
	// and every buffered frame has been disposed of by the end of the
	// run. Its violation is the paper's definition of livelock: the
	// system holds work it will never finish.
	InvProgress InvariantSet = 1 << iota
	// InvReenable: every inhibition is temporary. At quiescence the
	// input gate is open, device receive interrupts are enabled
	// (non-clocked polled mode), and the screend queue has left the
	// above-high-watermark regime.
	InvReenable
	// InvBudget: the poller never exceeds its per-callback packet
	// quota, and the cycle limiter never lets usage reach its budget
	// without inhibiting input.
	InvBudget
	// InvConservation: the Router.Audit packet ledger balances at every
	// event boundary — no frame is lost or invented.
	InvConservation
	// InvHandles: the engine's pending-event population stays within a
	// scenario bound during the run and collapses to the perpetual
	// self-rescheduling events at quiescence — no event or armed Timer
	// outlives the work it was scheduled for. (The name predates the
	// Timers; it stays because reports and scripts print it.)
	InvHandles
	// InvHysteresis: the screend queue's OnHigh/OnLow watermark
	// callbacks strictly alternate — exactly one firing per regime
	// crossing.
	InvHysteresis
	// InvNoSpuriousRtx: no retransmission without a real or
	// timer-signaled loss event. On any schedule where nothing was
	// dropped anywhere and the adversary injected no reorder, the TCP
	// sender's recovery machinery (fast retransmits, timeouts,
	// retransmitted segments) must never fire. Vacuous for scenarios
	// without a TCP flow.
	InvNoSpuriousRtx
	// InvLockdep: the runtime lock-discipline checker (cpu.Lockdep,
	// armed on every SMP world) observed no violation on the schedule:
	// no guarded object touched outside its lock's critical section and
	// no lock-order cycle. Vacuous for uniprocessor scenarios, where no
	// FairLock exists.
	InvLockdep

	// InvAll enables every invariant.
	InvAll InvariantSet = InvProgress | InvReenable | InvBudget |
		InvConservation | InvHandles | InvHysteresis | InvNoSpuriousRtx |
		InvLockdep
)

var invariantNames = []struct {
	bit  InvariantSet
	name string
}{
	{InvProgress, "progress"},
	{InvReenable, "reenable"},
	{InvBudget, "budget"},
	{InvConservation, "conservation"},
	{InvHandles, "handles"},
	{InvHysteresis, "hysteresis"},
	{InvNoSpuriousRtx, "spurious-rtx"},
	{InvLockdep, "lockdep"},
}

// String renders the set as a comma-separated list, or "all"/"none".
func (s InvariantSet) String() string {
	if s == InvAll {
		return "all"
	}
	if s == 0 {
		return "none"
	}
	var parts []string
	for _, in := range invariantNames {
		if s&in.bit != 0 {
			parts = append(parts, in.name)
		}
	}
	return strings.Join(parts, ",")
}

// ParseInvariants parses a comma-separated invariant list ("all" for
// every invariant).
func ParseInvariants(spec string) (InvariantSet, error) {
	if spec == "all" || spec == "" {
		return InvAll, nil
	}
	var s InvariantSet
	for _, f := range strings.Split(spec, ",") {
		f = strings.TrimSpace(f)
		found := false
		for _, in := range invariantNames {
			if in.name == f {
				s |= in.bit
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("explore: unknown invariant %q", f)
		}
	}
	return s, nil
}

// Options bounds an exploration.
type Options struct {
	// DepthBudget caps the number of recorded choice sites per
	// execution; sites beyond it take the default alternative without
	// branching (and mark the report truncated).
	DepthBudget int
	// MaxExecutions caps the total number of executions.
	MaxExecutions int
	// MaxEventsPerExec caps fired events in one execution, a guard
	// against runaway schedules.
	MaxEventsPerExec uint64
	// Invariants selects the checked invariants (default InvAll).
	Invariants InvariantSet
	// StopAtFirst stops the exploration at the first violation.
	StopAtFirst bool
	// MaxViolations caps how many counterexamples the report retains
	// (further violations are counted but not stored).
	MaxViolations int
}

func (o Options) withDefaults() Options {
	if o.DepthBudget == 0 {
		o.DepthBudget = 48
	}
	if o.MaxExecutions == 0 {
		o.MaxExecutions = 20000
	}
	if o.MaxEventsPerExec == 0 {
		o.MaxEventsPerExec = 200000
	}
	if o.Invariants == 0 {
		o.Invariants = InvAll
	}
	if o.MaxViolations == 0 {
		o.MaxViolations = 16
	}
	return o
}

// Pick is one resolved choice: at a site of the given kind with n
// alternatives, alternative alt (labelled for humans) was taken.
type Pick struct {
	Kind  string `json:"kind"`
	Alt   int    `json:"alt"`
	N     int    `json:"n"`
	Label string `json:"label,omitempty"`
}

// branchSite is a choice site recorded during an execution, from which
// the driver derives the sibling prefixes still to explore.
type branchSite struct {
	idx    int // index into the execution's choice path
	kind   string
	labels []string
}

// Report summarises an exploration.
type Report struct {
	Scenario         string `json:"scenario"`
	DepthBudget      int    `json:"depth_budget"`
	MaxExecutions    int    `json:"max_executions"`
	MaxEventsPerExec uint64 `json:"max_events_per_exec"`
	Invariants       string `json:"invariants"`

	Executions     int    `json:"executions"`
	Events         uint64 `json:"events"`
	Sites          uint64 `json:"choice_sites"`
	MaxDepth       int    `json:"max_depth"`
	UniqueStates   int    `json:"unique_states"`
	DedupPrunes    int    `json:"dedup_prunes"`
	SleepPrunes    int    `json:"sleep_prunes"`
	Exhausted      bool   `json:"exhausted"`
	Truncated      bool   `json:"truncated"`
	ViolationCount int    `json:"violation_count"`

	Violations []*Violation `json:"violations,omitempty"`
}

// controller threads one execution's choices: replaying the prefix,
// defaulting and recording beyond it, and carrying the verdict.
type controller struct {
	opts   *Options
	sc     *Scenario
	w      *world
	prefix []Pick
	replay bool
	seen   map[uint64]int // fingerprint -> max remaining depth budget; nil disables dedup

	path       []Pick
	sites      []branchSite
	violation  *Violation
	stopped    bool
	pruned     bool
	clipped    bool
	mismatches int
}

// breakTie is the sim.TieBreaker: every same-instant tie is an
// invariant checkpoint, a dedup point, and a choice site.
func (c *controller) breakTie(at sim.Time, ties []sim.Tie) int {
	if c.stopped {
		return 0
	}
	c.w.checkpoint(at, ties)
	if c.stopped {
		return 0
	}
	return c.choose("tie", c.w.tieLabels(ties))
}

// decide is the fault.Adversary hook: fault choice points are choice
// sites but not checkpoints (they occur mid-event, between which the
// system is not at a consistent boundary).
func (c *controller) decide(kind string, n int) int {
	if c.stopped {
		return 0
	}
	if n == 2 {
		return c.choose(kind, faultAlts[:])
	}
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("alt%d", i)
	}
	return c.choose(kind, labels)
}

var faultAlts = [2]string{"pass", "inject"}

func (c *controller) choose(kind string, labels []string) int {
	n := len(labels)
	if c.stopped || n <= 1 {
		return 0
	}
	idx := len(c.path)
	alt := 0
	switch {
	case idx < len(c.prefix):
		p := c.prefix[idx]
		if p.Kind != kind || p.N != n ||
			(p.Label != "" && p.Alt >= 0 && p.Alt < n && labels[p.Alt] != p.Label) {
			c.mismatches++
		}
		if p.Alt >= 0 && p.Alt < n {
			alt = p.Alt
		}
	case c.replay:
		// Beyond its script a replay takes defaults; trailing defaults
		// were trimmed from the counterexample precisely because they
		// reproduce this way.
	case idx < c.opts.DepthBudget:
		c.sites = append(c.sites, branchSite{
			idx:    idx,
			kind:   kind,
			labels: append([]string(nil), labels...),
		})
	default:
		c.clipped = true
	}
	c.path = append(c.path, Pick{Kind: kind, Alt: alt, N: n, Label: labels[alt]})
	return alt
}

func (c *controller) fail(invariant, detail string) {
	if c.stopped {
		return
	}
	c.violation = &Violation{
		Scenario:  c.sc.Name,
		Invariant: invariant,
		Detail:    detail,
		WhenNS:    int64(c.w.eng.Now()),
		Picks:     trimPicks(c.path),
	}
	c.stop()
}

func (c *controller) stop() {
	c.stopped = true
	c.w.eng.Stop()
}

func (c *controller) prune() {
	c.pruned = true
	c.stop()
}

// trimPicks drops trailing default picks: a replay reproduces them on
// its own, and the trimmed script is the minimal prefix that forces
// the divergence.
func trimPicks(path []Pick) []Pick {
	end := len(path)
	for end > 0 && path[end-1].Alt == 0 {
		end--
	}
	return append([]Pick(nil), path[:end]...)
}

type runResult struct {
	path       []Pick
	sites      []branchSite
	violation  *Violation
	pruned     bool
	clipped    bool
	mismatches int
	fired      uint64
}

// runOne performs one execution: a fresh world, the prefix replayed,
// defaults beyond it, invariants checked at every boundary.
func runOne(sc *Scenario, opts *Options, prefix []Pick, seen map[uint64]int, replay bool) *runResult {
	ctl := &controller{opts: opts, sc: sc, prefix: prefix, replay: replay, seen: seen}
	w := newWorld(sc, opts, ctl)
	ctl.w = w
	w.start()
	fired := w.eng.Run(sim.Time(0).Add(sc.Horizon).Add(sc.Drain))
	if !ctl.stopped {
		w.checkEnd()
	}
	return &runResult{
		path:       ctl.path,
		sites:      ctl.sites,
		violation:  ctl.violation,
		pruned:     ctl.pruned,
		clipped:    ctl.clipped,
		mismatches: ctl.mismatches,
		fired:      fired,
	}
}

// independentOfEarlier reports whether labels[alt] commutes with every
// earlier alternative at the site, in which case scheduling it first
// reaches the same states as some ordering already queued and the
// branch can be skipped (a one-level sleep set).
func independentOfEarlier(labels []string, alt int, indep func(a, b string) bool) bool {
	for k := 0; k < alt; k++ {
		if !indep(labels[alt], labels[k]) {
			return false
		}
	}
	return true
}

// Explore enumerates the scenario's schedules depth-first and returns
// the aggregate report. Exhausted is true only if every schedule
// within the bounds was covered with no execution clipped by the depth
// or event budget.
func Explore(sc *Scenario, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	if err := sc.validate(); err != nil {
		return nil, err
	}
	rep := &Report{
		Scenario:         sc.Name,
		DepthBudget:      opts.DepthBudget,
		MaxExecutions:    opts.MaxExecutions,
		MaxEventsPerExec: opts.MaxEventsPerExec,
		Invariants:       opts.Invariants.String(),
		Exhausted:        true,
	}
	seen := make(map[uint64]int)
	stack := [][]Pick{nil}
	for len(stack) > 0 {
		if rep.Executions >= opts.MaxExecutions {
			rep.Exhausted = false
			rep.Truncated = true
			break
		}
		prefix := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		res := runOne(sc, &opts, prefix, seen, false)
		rep.Executions++
		rep.Events += res.fired
		rep.Sites += uint64(len(res.path))
		if len(res.path) > rep.MaxDepth {
			rep.MaxDepth = len(res.path)
		}
		if res.pruned {
			rep.DedupPrunes++
		}
		if res.clipped {
			rep.Exhausted = false
			rep.Truncated = true
		}
		if res.violation != nil {
			rep.ViolationCount++
			if len(rep.Violations) < opts.MaxViolations {
				rep.Violations = append(rep.Violations, res.violation)
			}
			if opts.StopAtFirst {
				rep.Exhausted = false
				break
			}
		}
		for _, s := range res.sites {
			for alt := 1; alt < len(s.labels); alt++ {
				if s.kind == "tie" && sc.Independent != nil &&
					independentOfEarlier(s.labels, alt, sc.Independent) {
					rep.SleepPrunes++
					continue
				}
				np := make([]Pick, s.idx+1)
				copy(np, res.path[:s.idx])
				np[s.idx] = Pick{Kind: s.kind, Alt: alt, N: len(s.labels), Label: s.labels[alt]}
				stack = append(stack, np)
			}
		}
	}
	rep.UniqueStates = len(seen)
	sort.SliceStable(rep.Violations, func(i, j int) bool {
		return len(rep.Violations[i].Picks) < len(rep.Violations[j].Picks)
	})
	return rep, nil
}

// ReplayResult is the outcome of re-executing one schedule script.
type ReplayResult struct {
	// Violation is the invariant violation the replay reproduced, or
	// nil if the schedule now runs clean (the expected outcome for a
	// committed counterexample after its fix).
	Violation *Violation
	// Sites is the number of choice sites the replay encountered.
	Sites int
	// Mismatches counts scripted picks whose kind, arity, or label no
	// longer matched the encountered site — drift between the script
	// and the current code, tolerated but reported.
	Mismatches int
	// Events is the number of fired engine events.
	Events uint64
}

// Replay re-executes a counterexample's schedule as a single run with
// full invariant checking and no pruning.
func Replay(sc *Scenario, v *Violation, opts Options) (*ReplayResult, error) {
	opts = opts.withDefaults()
	if err := sc.validate(); err != nil {
		return nil, err
	}
	res := runOne(sc, &opts, v.Picks, nil, true)
	return &ReplayResult{
		Violation:  res.violation,
		Sites:      len(res.path),
		Mismatches: res.mismatches,
		Events:     res.fired,
	}, nil
}
