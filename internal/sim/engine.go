package sim

import "fmt"

// Callback is the closure-free event function signature: a top-level
// function plus up to two receiver/argument values. Storing pointers
// (or other pointer-shaped values such as funcs) in the any slots does
// not allocate, so hot schedulers that use AtCall/AfterCall with a
// package-level function schedule without producing any garbage.
type Callback func(a, b any)

// Event is a scheduler entry. A fire-and-forget event, scheduled by
// AtCall and its wrappers, comes from the engine's free list and goes
// back to it the moment it fires; nothing outside the engine holds it.
// An event that must be cancellable is a Timer's: its owner keeps it.
// A free Event's a slot is its free-list link, so an Event (and a
// Timer) has no link field and is 64 bytes on a 64-bit platform.
type Event struct {
	when  Time
	seq   uint64 // the event's queue key with when; Disarm searches by it
	fn    Callback
	a, b  any
	kept  bool // a Timer's Event: its owner keeps it, never recycled
	armed bool // a Timer's Event is queued
}

// Timer is an Event its owner keeps and re-arms, so it never enters the
// free list: Init it once, then Engine.ArmAfter and Engine.Disarm. An
// arm takes the next seq exactly as AtCall does. The queue points at
// the Timer while it is armed, so an armed Timer must not move: keep it
// in a field of its owner, or in a slot of an array that never shifts.
type Timer struct{ ev Event }

// Init binds the timer's callback; call it before arming, and re-bind
// only while it is disarmed.
func (t *Timer) Init(fn Callback, a, b any) {
	t.ev = Event{fn: fn, a: a, b: b, kept: true}
}

// Armed reports whether the timer is queued. A timer is disarmed when
// its callback runs, so the callback may re-arm it.
func (t *Timer) Armed() bool { return t.ev.armed }

// node is one entry of the event queue. The ordering key (when, seq) is
// stored inline so neither insert nor Disarm chases the Event pointer.
type node struct {
	when Time
	seq  uint64 // FIFO tie-break for events at the same instant
	ev   *Event
}

// Tie describes one of several pending events due at the same instant,
// offered to an installed TieBreaker. Rank within the tie set follows
// scheduling order: ties[0] is the event FIFO would fire.
type Tie struct {
	// Seq is the event's scheduling sequence number (FIFO order).
	Seq uint64
	// Fn is the event's callback; exploration harnesses resolve it to a
	// stable function name for labelling schedule choices.
	Fn Callback
	// Arg is the event's first operand (typically the receiver), used to
	// distinguish instances sharing a callback function.
	Arg  any
	Arg2 any // the second operand (a per-packet event's packet)
}

// TieBreaker chooses which of the tied same-instant events fires next,
// returning an index into ties. Returning 0 reproduces the engine's
// default FIFO order. The ties slice is reused between calls and must
// not be retained, and the breaker must not schedule, arm or disarm
// events (Engine panics if it does). Installed only by schedule-exploration harnesses;
// normal runs leave it nil and pay nothing beyond one nil check per
// fired event.
type TieBreaker func(now Time, ties []Tie) int

// Engine is a discrete-event simulator. It is not safe for concurrent
// use; a simulation is a single-threaded, deterministic computation.
//
// The scheduler hot path is allocation-free at steady state: Events are
// recycled through a free list, and the queue is one slice of inline
// (when, seq) nodes kept sorted latest-first, so the next event is
// always the last element. Firing pops it with no comparisons;
// scheduling is one insertion-sort pass from the tail; Disarm
// binary-searches a Timer's node and closes the gap at once. The
// simulator keeps a handful of events pending (about 5 on average over
// the figure sweep, 127 at most) and most inserts move 3 nodes or
// fewer, where the pass is cheaper than a heap's sifts; DESIGN.md §6
// gives the depth at which that reverses. Events fire strictly by
// (when, seq), with seq assigned in scheduling order.
type Engine struct {
	now     Time
	queue   []node // sorted by (when, seq), latest first
	seq     uint64
	stopped bool
	fired   uint64
	free    *Event // recycled Events ready for reuse, linked by their a

	tie     TieBreaker
	tieList []Tie // scratch: the view handed to the TieBreaker
	held    int   // tied events out of the queue while the TieBreaker runs
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// SetTieBreaker installs tb as the same-instant tie-break hook; nil
// restores default FIFO order. See TieBreaker.
func (e *Engine) SetTieBreaker(tb TieBreaker) { e.tie = tb }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// runClosure adapts the closure-based At/After API onto the pooled
// callback representation. Func values are pointer-shaped, so stashing
// one in the event's any slot does not allocate.
func runClosure(a, _ any) { a.(func())() }

// At schedules fn to run at instant t. Scheduling in the past panics:
// a discrete-event simulation must never move the clock backwards, and a
// past timestamp always indicates a bug in the caller.
func (e *Engine) At(t Time, fn func()) {
	if fn == nil {
		panic("sim: nil event function")
	}
	e.AtCall(t, runClosure, fn, nil)
}

// After schedules fn to run d after the current instant. Negative d
// panics, as with At.
func (e *Engine) After(d Duration, fn func()) {
	e.At(e.now.Add(d), fn)
}

// AtCall schedules fn(a, b) to run at instant t. Unlike At it takes a
// plain function plus its arguments rather than a closure, so hot
// schedulers pass a package-level function and their receiver pointer
// and the call allocates nothing. The event cannot be cancelled; an
// owner that may need to cancel keeps a Timer instead. Scheduling in the
// past or with a nil fn panics.
func (e *Engine) AtCall(t Time, fn Callback, a, b any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v, before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	ev := e.free
	if ev != nil {
		e.free = ev.a.(*Event)
	} else {
		ev = &Event{}
	}
	ev.fn = fn
	ev.a, ev.b = a, b
	e.insert(ev, t)
}

// insert queues ev at t, next seq. That seq is the largest, so the nodes
// due at or before t move up one slot, from the tail, and ev takes the gap.
func (e *Engine) insert(ev *Event, t Time) {
	ev.when, ev.seq = t, e.seq
	e.seq++
	q := append(e.queue, node{})
	i := len(q) - 1
	for ; i > 0 && q[i-1].when <= t; i-- {
		q[i] = q[i-1]
	}
	q[i] = node{when: t, seq: ev.seq, ev: ev}
	e.queue = q
}

// ArmAfter queues tm d after now; arming it in the past or twice panics.
func (e *Engine) ArmAfter(tm *Timer, d Duration) {
	if d < 0 || tm.ev.armed {
		panic("sim: timer armed in the past or twice")
	}
	tm.ev.armed = true
	e.insert(&tm.ev, e.now.Add(d))
}

// Disarm removes tm from the queue if it is armed. It panics if the
// node at tm's key is not tm's: the Timer was copied or moved while
// armed, and the queue still points at the old place.
func (e *Engine) Disarm(tm *Timer) {
	if tm.ev.armed {
		e.disarm(&tm.ev)
	}
}

// disarm is Disarm's removal, kept apart so Disarm inlines. It
// binary-searches the first node not ordered after ev's (when, seq).
func (e *Engine) disarm(ev *Event) {
	lo, hi := 0, len(e.queue)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if n := &e.queue[m]; n.when > ev.when || n.when == ev.when && n.seq > ev.seq {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(e.queue) || e.queue[lo].ev != ev {
		panic("sim: timer moved while armed")
	}
	ev.armed = false
	e.remove(lo)
}

// AfterCall schedules fn(a, b) to run d after the current instant. See
// AtCall.
func (e *Engine) AfterCall(d Duration, fn Callback, a, b any) {
	e.AtCall(e.now.Add(d), fn, a, b)
}

// recycle returns ev to the free list (a Timer's is only disarmed).
// Firing recycles first, so a rescheduling callback reuses the Event.
func (e *Engine) recycle(ev *Event) {
	if ev.kept {
		ev.armed = false
		return
	}
	ev.fn, ev.a, ev.b = nil, e.free, nil
	e.free = ev
}

// breakTie lets the TieBreaker pick which of the events due at the last
// node's instant fires, and removes and returns that node. The tie set
// is the queue's tail of nodes sharing the instant, offered in
// (when, seq) order. While the breaker decides, the set is held out of
// the queue: VisitPending does not show it and Pending still counts
// it. Afterwards the unpicked nodes are back where they were, so their
// FIFO order holds for the next decision.
func (e *Engine) breakTie(last int) node {
	when := e.queue[last].when
	e.tieList = e.tieList[:0]
	for i := last; i >= 0 && e.queue[i].when == when; i-- {
		n := &e.queue[i]
		e.tieList = append(e.tieList, Tie{Seq: n.seq, Fn: n.ev.fn, Arg: n.ev.a, Arg2: n.ev.b})
	}
	rest := last + 1 - len(e.tieList)
	e.queue, e.held = e.queue[:rest], len(e.tieList)
	pick := e.tie(when, e.tieList)
	if len(e.queue) != rest {
		panic("sim: tie-breaker scheduled or disarmed an event")
	}
	e.queue, e.held = e.queue[:last+1], 0
	if pick < 0 || pick >= len(e.tieList) {
		panic(fmt.Sprintf("sim: tie-breaker chose %d of %d tied events", pick, len(e.tieList)))
	}
	for i := range e.tieList {
		e.tieList[i] = Tie{}
	}
	n := e.queue[last-pick]
	e.remove(last - pick)
	return n
}

// Step fires the next pending event (the last node, or a TieBreaker's
// pick among those due at its instant), reporting false if none remain.
func (e *Engine) Step() bool {
	last := len(e.queue) - 1
	if last < 0 {
		return false
	}
	n := e.queue[last]
	if e.tie != nil && last > 0 && e.queue[last-1].when == n.when {
		n = e.breakTie(last)
	} else {
		e.queue[last] = node{}
		e.queue = e.queue[:last]
	}
	e.now = n.when
	fn, a, b := n.ev.fn, n.ev.a, n.ev.b
	e.recycle(n.ev)
	e.fired++
	fn(a, b)
	return true
}

// Run fires events in order until the clock would pass `until`, then sets
// the clock to exactly `until`. Events scheduled at `until` itself are
// fired. Run returns the number of events fired.
//
// The loop body is Step's: as calls per event, the pop and the fire
// cost about 5% of a polled router's host time.
func (e *Engine) Run(until Time) uint64 {
	start := e.fired
	e.stopped = false
	for !e.stopped && len(e.queue) > 0 {
		last := len(e.queue) - 1
		n := e.queue[last]
		if n.when > until {
			break
		}
		if e.tie != nil && last > 0 && e.queue[last-1].when == n.when {
			n = e.breakTie(last)
		} else {
			e.queue[last] = node{}
			e.queue = e.queue[:last]
		}
		e.now = n.when
		fn, a, b := n.ev.fn, n.ev.a, n.ev.b
		e.recycle(n.ev)
		e.fired++
		fn(a, b)
	}
	if e.now < until {
		e.now = until
	}
	return e.fired - start
}

// RunFor advances the simulation by d. See Run.
func (e *Engine) RunFor(d Duration) uint64 { return e.Run(e.now.Add(d)) }

// Stop makes the innermost Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Pending returns the number of events that have been scheduled and
// have neither fired nor been disarmed. A disarmed Timer leaves the
// queue at once, so it is not counted.
func (e *Engine) Pending() int { return len(e.queue) + e.held }

// VisitPending calls visit for every queued event, latest first: every
// pending one, except a tie set held out while the TieBreaker decides.
// Exploration harnesses use this to fingerprint the scheduler's
// forward-relevant state; callers needing a canonical order must sort
// what they collect. visit must not schedule, arm or disarm events.
func (e *Engine) VisitPending(visit func(when Time, fn Callback, a, b any)) {
	for _, n := range e.queue {
		visit(n.when, n.ev.fn, n.ev.a, n.ev.b)
	}
}

// remove deletes the node at index i; the nodes due sooner move down one.
func (e *Engine) remove(i int) {
	q, last := e.queue, len(e.queue)-1
	for ; i < last; i++ {
		q[i] = q[i+1]
	}
	q[last] = node{}
	e.queue = q[:last]
}
