package sim

// Differential test: the engine (one sorted slice of inline (when, seq)
// nodes, pooled fire-and-forget events, owned Timers removed at once by
// Disarm) is checked against a retained copy of the original
// implementation (a binary heap of per-event allocations with eager
// cancellation). Both engines execute the same schedule/cancel/
// reschedule scripts — seeded random ones here and fuzzed ones in
// FuzzEngineDifferential, including same-instant ties and
// cancel-while-pending — and must produce the identical firing order
// and identical Fired/Pending counts at every run boundary. A script's
// cancellable events are Timers, one per id; the events a firing
// spawns are pooled.

import (
	"fmt"
	"math/rand"
	"testing"
)

// --- reference engine: the pre-overhaul implementation, verbatim ---

type refEvent struct {
	when  Time
	seq   uint64
	index int
	fn    func()
}

func (e *refEvent) pendingRef() bool { return e != nil && e.index >= 0 }

type refEngine struct {
	now     Time
	heap    []*refEvent
	seq     uint64
	stopped bool
	fired   uint64
}

func (e *refEngine) at(t Time, fn func()) *refEvent {
	if t < e.now {
		panic(fmt.Sprintf("ref: event scheduled at %v, before now %v", t, e.now))
	}
	ev := &refEvent{when: t, seq: e.seq, fn: fn}
	e.seq++
	e.push(ev)
	return ev
}

func (e *refEngine) cancel(ev *refEvent) {
	if ev == nil || ev.index < 0 {
		return
	}
	e.remove(ev)
	ev.fn = nil
}

func (e *refEngine) step() bool {
	ev := e.pop()
	if ev == nil {
		return false
	}
	e.now = ev.when
	fn := ev.fn
	ev.fn = nil
	e.fired++
	fn()
	return true
}

func (e *refEngine) run(until Time) uint64 {
	start := e.fired
	e.stopped = false
	for !e.stopped {
		if len(e.heap) == 0 || e.heap[0].when > until {
			break
		}
		e.step()
	}
	if e.now < until {
		e.now = until
	}
	return e.fired - start
}

func (e *refEngine) less(i, j int) bool {
	a, b := e.heap[i], e.heap[j]
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (e *refEngine) swap(i, j int) {
	e.heap[i], e.heap[j] = e.heap[j], e.heap[i]
	e.heap[i].index = i
	e.heap[j].index = j
}

func (e *refEngine) push(ev *refEvent) {
	ev.index = len(e.heap)
	e.heap = append(e.heap, ev)
	e.up(ev.index)
}

func (e *refEngine) pop() *refEvent {
	if len(e.heap) == 0 {
		return nil
	}
	ev := e.heap[0]
	e.remove(ev)
	return ev
}

func (e *refEngine) remove(ev *refEvent) {
	i := ev.index
	last := len(e.heap) - 1
	if i != last {
		e.swap(i, last)
	}
	e.heap[last] = nil
	e.heap = e.heap[:last]
	if i != last && i < len(e.heap) {
		e.down(i)
		e.up(i)
	}
	ev.index = -1
}

func (e *refEngine) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			break
		}
		e.swap(i, parent)
		i = parent
	}
}

func (e *refEngine) down(i int) {
	n := len(e.heap)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		smallest := left
		if right := left + 1; right < n && e.less(right, left) {
			smallest = right
		}
		if !e.less(smallest, i) {
			break
		}
		e.swap(i, smallest)
		i = smallest
	}
}

// --- op scripts ---

type opKind int

const (
	opSchedule opKind = iota // arm event `id`'s Timer after `delay`
	opCancel                 // disarm event `target` (may already be fired/disarmed)
	opResched                // disarm `target`, then arm `id` after `delay`
	opAdvance                // run until now+delay, then compare state
	opArm                    // arm Timer `target` after `delay` unless it is armed
	opDisarm                 // disarm Timer `target` (may be disarmed already)
	opRearm                  // disarm Timer `target`, then arm it after `delay`
)

// numTimers is how many Timers a script drives; their firings are
// recorded as timerID(k). The reference engine models each Timer as a
// plain event: arming is an at, disarming a cancel.
const numTimers = 4

func timerID(k int) int { return -1 - k }

// timerRearms decides whether Timer k's firing re-arms it, and after
// how long: even timers re-arm themselves (as a CPU's completion timer
// is re-armed from its own callback) up to three times.
func timerRearms(k, fired int) (Duration, bool) {
	return Duration(7 * k), k%2 == 0 && fired <= 3
}

type op struct {
	kind   opKind
	id     int
	target int
	delay  Duration
}

// genScript builds a random but fully pre-planned op sequence. Delays
// are drawn from a small range with heavy mass on zero so that
// same-instant FIFO ties are common, and cancel targets are drawn from
// all previously used ids so that stale cancels (fired or already
// cancelled) are exercised alongside genuine cancel-while-pending.
func genScript(rng *rand.Rand, n int) []op {
	var script []op
	nextID := 0
	for i := 0; i < n; i++ {
		switch r := rng.Intn(10); {
		case r < 4:
			script = append(script, op{kind: opSchedule, id: nextID, delay: randDelay(rng)})
			nextID++
		case r < 6 && nextID > 0:
			script = append(script, op{kind: opCancel, target: rng.Intn(nextID)})
		case r < 8 && nextID > 0:
			script = append(script, op{
				kind: opResched, target: rng.Intn(nextID),
				id: nextID, delay: randDelay(rng),
			})
			nextID++
		default:
			script = append(script, op{kind: opAdvance, delay: Duration(rng.Intn(500))})
		}
	}
	return script
}

func randDelay(rng *rand.Rand) Duration {
	if rng.Intn(3) == 0 {
		return 0 // same-instant tie with whatever else is due now
	}
	return Duration(rng.Intn(300))
}

// childSpec decides — purely from the parent id — whether a firing
// event schedules a follow-up, so both engines make identical choices
// without sharing state. Every other spawning parent schedules its
// child at the *current* instant (delay 0): the child ties with events
// already due now and must fire in identical (when, seq) order on both
// engines, including when the parent itself was reached through a tie.
func childSpec(id int) (child int, delay Duration, ok bool) {
	if id%3 != 0 {
		return 0, 0, false
	}
	if id%6 == 0 {
		return id + 1_000_000, 0, true
	}
	return id + 1_000_000, Duration((id*37)%97 + 1), true
}

// runNew executes script on the engine, returning the firing order
// and (fired, pending) observed after every advance.
func runNew(script []op) (order []int, marks [][2]uint64) {
	eng := NewEngine()
	var fire Callback
	fire = func(a, _ any) {
		id := a.(int)
		order = append(order, id)
		if child, d, ok := childSpec(id); ok {
			eng.AfterCall(d, fire, child, nil)
		}
	}
	events := map[int]*Timer{}
	schedule := func(id int, d Duration) {
		tm := new(Timer)
		tm.Init(fire, id, nil)
		eng.ArmAfter(tm, d)
		events[id] = tm
	}
	var timers [numTimers]Timer
	var fired [numTimers]int
	for k := range timers {
		timers[k].Init(func(a, _ any) {
			k := a.(int)
			order = append(order, timerID(k))
			fired[k]++
			if d, ok := timerRearms(k, fired[k]); ok {
				eng.ArmAfter(&timers[k], d)
			}
		}, k, nil)
	}
	for _, o := range script {
		switch o.kind {
		case opArm:
			if !timers[o.target].Armed() {
				eng.ArmAfter(&timers[o.target], o.delay)
			}
		case opDisarm:
			eng.Disarm(&timers[o.target])
		case opRearm:
			eng.Disarm(&timers[o.target])
			eng.ArmAfter(&timers[o.target], o.delay)
		case opSchedule:
			schedule(o.id, o.delay)
		case opCancel:
			eng.Disarm(events[o.target])
		case opResched:
			eng.Disarm(events[o.target])
			schedule(o.id, o.delay)
		case opAdvance:
			eng.Run(eng.Now().Add(o.delay))
			marks = append(marks, [2]uint64{eng.Fired(), uint64(eng.Pending())})
		}
	}
	eng.Run(eng.Now().Add(Duration(1 << 32))) // drain
	marks = append(marks, [2]uint64{eng.Fired(), uint64(eng.Pending())})
	return order, marks
}

// runRef executes the same script on the reference engine.
func runRef(script []op) (order []int, marks [][2]uint64) {
	eng := &refEngine{}
	events := map[int]*refEvent{}
	var schedule func(id int, d Duration)
	schedule = func(id int, d Duration) {
		events[id] = eng.at(eng.now.Add(d), func() {
			order = append(order, id)
			if child, cd, ok := childSpec(id); ok {
				schedule(child, cd)
			}
		})
	}
	var timers [numTimers]*refEvent
	var fired [numTimers]int
	var arm func(k int, d Duration)
	arm = func(k int, d Duration) {
		timers[k] = eng.at(eng.now.Add(d), func() {
			order = append(order, timerID(k))
			fired[k]++
			if d, ok := timerRearms(k, fired[k]); ok {
				arm(k, d)
			}
		})
	}
	for _, o := range script {
		switch o.kind {
		case opArm:
			if !timers[o.target].pendingRef() {
				arm(o.target, o.delay)
			}
		case opDisarm:
			eng.cancel(timers[o.target])
		case opRearm:
			eng.cancel(timers[o.target])
			arm(o.target, o.delay)
		case opSchedule:
			schedule(o.id, o.delay)
		case opCancel:
			eng.cancel(events[o.target])
		case opResched:
			eng.cancel(events[o.target])
			schedule(o.id, o.delay)
		case opAdvance:
			eng.run(eng.now.Add(o.delay))
			marks = append(marks, [2]uint64{eng.fired, uint64(len(eng.heap))})
		}
	}
	eng.run(eng.now.Add(Duration(1 << 32)))
	marks = append(marks, [2]uint64{eng.fired, uint64(len(eng.heap))})
	return order, marks
}

func TestEngineDifferential(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := genScript(rng, 400)
		gotOrder, gotMarks := runNew(script)
		wantOrder, wantMarks := runRef(script)

		if len(gotOrder) != len(wantOrder) {
			t.Fatalf("seed %d: fired %d events, reference fired %d",
				seed, len(gotOrder), len(wantOrder))
		}
		for i := range gotOrder {
			if gotOrder[i] != wantOrder[i] {
				t.Fatalf("seed %d: firing order diverges at position %d: got id %d, reference id %d",
					seed, i, gotOrder[i], wantOrder[i])
			}
		}
		if len(gotMarks) != len(wantMarks) {
			t.Fatalf("seed %d: %d advance marks vs reference %d", seed, len(gotMarks), len(wantMarks))
		}
		for i := range gotMarks {
			if gotMarks[i] != wantMarks[i] {
				t.Fatalf("seed %d: (fired, pending) at mark %d = %v, reference %v",
					seed, i, gotMarks[i], wantMarks[i])
			}
		}
	}
}

// TestEngineDifferentialSameInstantResched pins the same-instant
// rescheduling corner explicitly: events rescheduled (and children
// spawned) at the current timestamp must interleave with already-due
// events in identical FIFO order on both engines, including ties that
// involve a cancelled member and a cancel-then-reschedule at the same
// instant.
func TestEngineDifferentialSameInstantResched(t *testing.T) {
	// ids divisible by 6 spawn a child at delay 0 (see childSpec), so
	// this script stacks several same-instant spawners, tied siblings,
	// and a same-instant resched between advances.
	script := []op{
		{kind: opSchedule, id: 0, delay: 0},            // spawns child at current instant
		{kind: opSchedule, id: 6, delay: 0},            // spawns child at current instant
		{kind: opSchedule, id: 1, delay: 0},            // plain tied sibling
		{kind: opCancel, target: 1},                    // cancel a tie member before it fires
		{kind: opResched, target: 6, id: 12, delay: 0}, // resched within the tie
		{kind: opAdvance, delay: 0},                    // run the whole tie at t=0
		{kind: opSchedule, id: 18, delay: 5},           // spawner reached at a later instant
		{kind: opSchedule, id: 2, delay: 5},            // tied with 18 at t=5
		{kind: opAdvance, delay: 10},
	}
	gotOrder, gotMarks := runNew(script)
	wantOrder, wantMarks := runRef(script)
	if len(gotOrder) != len(wantOrder) {
		t.Fatalf("fired %d events, reference fired %d: %v vs %v",
			len(gotOrder), len(wantOrder), gotOrder, wantOrder)
	}
	for i := range gotOrder {
		if gotOrder[i] != wantOrder[i] {
			t.Fatalf("firing order diverges at position %d: got %v, reference %v",
				i, gotOrder, wantOrder)
		}
	}
	for i := range gotMarks {
		if gotMarks[i] != wantMarks[i] {
			t.Fatalf("(fired, pending) at mark %d = %v, reference %v",
				i, gotMarks[i], wantMarks[i])
		}
	}
	// The same-instant spawners must actually have spawned: ids 0 and 12
	// put children 1000000 and 1000012 into the t=0 tie.
	seen := map[int]bool{}
	for _, id := range gotOrder {
		seen[id] = true
	}
	for _, id := range []int{0, 12, 1_000_000, 1_000_012} {
		if !seen[id] {
			t.Fatalf("expected id %d to fire (order %v)", id, gotOrder)
		}
	}
	if seen[1] || seen[6] {
		t.Fatalf("cancelled ids fired (order %v)", gotOrder)
	}
}

// TestEngineDifferentialCancelStorm drives the cancel-heavy pattern of
// a retransmit timer cancelled on every ACK: most scheduled events are
// cancelled before firing, at far-future deadlines, interleaved with
// live near-term work. The pooled engine must still agree with the
// reference exactly.
func TestEngineDifferentialCancelStorm(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var script []op
		id := 0
		for i := 0; i < 2000; i++ {
			// Far-future timer, cancelled a few ops later (an RTO pattern).
			script = append(script, op{kind: opSchedule, id: id, delay: Duration(1<<40) + Duration(rng.Intn(1000))})
			script = append(script, op{kind: opSchedule, id: id + 1, delay: randDelay(rng)})
			script = append(script, op{kind: opCancel, target: id})
			id += 2
			if i%50 == 0 {
				script = append(script, op{kind: opAdvance, delay: Duration(rng.Intn(200))})
			}
		}
		gotOrder, gotMarks := runNew(script)
		wantOrder, wantMarks := runRef(script)
		if len(gotOrder) != len(wantOrder) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(gotOrder), len(wantOrder))
		}
		for i := range gotOrder {
			if gotOrder[i] != wantOrder[i] {
				t.Fatalf("seed %d: order diverges at %d: got %d, want %d", seed, i, gotOrder[i], wantOrder[i])
			}
		}
		for i := range gotMarks {
			if gotMarks[i] != wantMarks[i] {
				t.Fatalf("seed %d: (fired, pending) at mark %d = %v, reference %v",
					seed, i, gotMarks[i], wantMarks[i])
			}
		}
	}
}

// decodeScript turns fuzz bytes into an op script, three bytes per op:
// the kind, a cancel target (taken modulo the ids used so far, or the
// number of Timers) and a delay. A quarter of the delay bytes map to
// zero, so same-instant ties stay common; an advance spans up to 4× a
// schedule's reach. Kind bytes 7 mod 8 decode as an advance.
func decodeScript(data []byte) []op {
	var script []op
	nextID := 0
	for ; len(data) >= 3 && len(script) < 2000; data = data[3:] {
		kind, target := opKind(data[0]%8), int(data[1])
		if kind > opRearm {
			kind = opAdvance
		}
		delay := Duration(0)
		if data[2] >= 64 {
			delay = Duration(data[2] - 64)
		}
		switch {
		case kind >= opArm:
			script = append(script, op{kind: kind, target: target % numTimers, delay: delay})
		case kind == opSchedule:
			script = append(script, op{kind: opSchedule, id: nextID, delay: delay})
			nextID++
		case kind == opAdvance:
			script = append(script, op{kind: opAdvance, delay: 4 * Duration(data[2])})
		case nextID == 0:
			// Nothing to cancel yet.
		case kind == opCancel:
			script = append(script, op{kind: opCancel, target: target % nextID})
		default:
			script = append(script, op{kind: opResched, target: target % nextID, id: nextID, delay: delay})
			nextID++
		}
	}
	return script
}

// deepScript encodes 40 schedules, pending together at 32 distinct
// delays in [0, 186] (id 0 is due first, tied with id 32; id 19 last),
// followed by the ops in tail.
func deepScript(tail ...byte) []byte {
	var data []byte
	for i := 0; i < 40; i++ {
		data = append(data, 0, 0, byte(64+(i*5)%32*6))
	}
	return append(data, tail...)
}

// FuzzEngineDifferential runs fuzzed op scripts, Timer arms, disarms
// and re-arms included, on both engines and demands the same firing
// order and the same (fired, pending) at every run boundary.
func FuzzEngineDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0})                 // three ties at t=0, then run
	f.Add([]byte{0, 0, 80, 0, 0, 80, 1, 0, 0, 3, 0, 30})              // cancel one of a tie
	f.Add([]byte{0, 0, 0, 2, 0, 0, 2, 1, 70, 3, 0, 0, 3, 0, 255})     // same-instant reschedules
	f.Add([]byte{0, 0, 255, 0, 0, 10, 1, 0, 0, 0, 0, 200, 3, 0, 100}) // far timer cancelled
	f.Add([]byte{4, 0, 0, 0, 0, 0, 4, 0, 80, 3, 0, 40})               // Timer ties an event, re-arms itself
	f.Add([]byte{4, 1, 70, 0, 0, 70, 5, 1, 0, 7, 0, 100})             // Timer disarmed before its tie
	f.Add([]byte{4, 2, 90, 6, 2, 64, 0, 0, 64, 3, 0, 50, 6, 2, 0})    // Timer re-armed into a tie
	// Queues deeper than 16: cancels at the tail, the middle and the
	// head; Timers armed, disarmed and re-armed amid the nodes; a tie
	// joined at depth.
	f.Add(deepScript(1, 0, 0, 1, 10, 0, 1, 19, 0, 3, 0, 20, 3, 0, 255))
	f.Add(deepScript(4, 0, 100, 4, 1, 64, 4, 2, 255, 5, 0, 0, 6, 1, 200, 3, 0, 100, 3, 0, 255))
	f.Add(deepScript(0, 0, 64, 0, 0, 64+96, 2, 5, 64, 3, 0, 255))
	f.Fuzz(func(t *testing.T, data []byte) {
		script := decodeScript(data)
		gotOrder, gotMarks := runNew(script)
		wantOrder, wantMarks := runRef(script)
		if len(gotOrder) != len(wantOrder) {
			t.Fatalf("fired %d events, reference fired %d", len(gotOrder), len(wantOrder))
		}
		for i := range gotOrder {
			if gotOrder[i] != wantOrder[i] {
				t.Fatalf("firing order diverges at position %d: got id %d, reference id %d",
					i, gotOrder[i], wantOrder[i])
			}
		}
		if len(gotMarks) != len(wantMarks) {
			t.Fatalf("%d run boundaries vs reference %d", len(gotMarks), len(wantMarks))
		}
		for i := range gotMarks {
			if gotMarks[i] != wantMarks[i] {
				t.Fatalf("(fired, pending) at boundary %d = %v, reference %v", i, gotMarks[i], wantMarks[i])
			}
		}
	})
}
