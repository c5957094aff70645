package cpu

// Differential fuzzing of the dispatcher: the CPU's per-level ready
// lists are checked against a reference scheduler that keeps the
// original scan order — one ready slice, scanned for the best
// (ipl, prio) with the lowest readySeq, a preempted task keeping its
// readySeq. Both run the same fuzzed script on a 2-CPU system (posts
// at random IPL and priority, interrupt-disabled windows, PostLocked
// items on a shared FairLock, tasks created mid-run) and must report
// the same run-hook spans and run the same commit functions at the
// same instants.

import (
	"fmt"
	"slices"
	"testing"

	"livelock/internal/sim"
)

// dispatcher is the surface the fuzz script drives; tasks are numbered
// in creation order.
type dispatcher interface {
	newTask(cpu int, ipl IPL, prio int)
	post(task int, cost sim.Duration, fn func())
	postLocked(task int, cost sim.Duration, fn func())
	disable(cpu int) bool
	restore(cpu int, saved bool)
}

type spanHook func(cpu, task int, start, end sim.Time)

// --- the CPU under test ---

type sysDispatch struct {
	sys   *System
	tasks []*Task
	ids   map[*Task]int
	lock  *FairLock
}

func newSysDispatch(eng *sim.Engine, hook spanHook) dispatcher {
	d := &sysDispatch{sys: NewSystem(eng, 2), ids: map[*Task]int{}, lock: NewFairLock("l")}
	for i := 0; i < 2; i++ {
		d.sys.CPU(i).SetRunHook(func(t *Task, start, end sim.Time) { hook(i, d.ids[t], start, end) })
	}
	return d
}

func (d *sysDispatch) newTask(cpu int, ipl IPL, prio int) {
	t := d.sys.CPU(cpu).NewTask(fmt.Sprint("t", len(d.tasks)), ipl, prio, ClassKernel)
	d.ids[t] = len(d.tasks)
	d.tasks = append(d.tasks, t)
}
func (d *sysDispatch) post(task int, cost sim.Duration, fn func()) { d.tasks[task].Post(cost, fn) }
func (d *sysDispatch) postLocked(task int, cost sim.Duration, fn func()) {
	d.tasks[task].PostLocked(d.lock, cost, d.tasks[task].Center(), fn)
}
func (d *sysDispatch) disable(cpu int) bool { return d.sys.CPU(cpu).SaveAndDisableInterrupts() }
func (d *sysDispatch) restore(cpu int, saved bool) {
	d.sys.CPU(cpu).RestoreInterrupts(saved)
}

// --- the reference scheduler: the original scan order ---

type refItem struct {
	cost, spin sim.Duration
	fn         func()
	lock       *FairLock
	savedInt   bool
}

type refTask struct {
	id       int
	ipl      IPL
	prio     int
	items    []refItem
	ready    bool
	readySeq uint64
	cpu      *refCPU
}

type refCPU struct {
	eng        *sim.Engine
	id         int
	intEnabled bool
	ready      []*refTask
	seq        uint64
	cur        *refTask
	curStart   sim.Time
	completion sim.Handle
	hook       spanHook
}

// refBeats orders ready tasks: (ipl, prio) desc, then readySeq asc.
func refBeats(a, b *refTask) bool {
	if a.ipl != b.ipl {
		return a.ipl > b.ipl
	}
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.readySeq < b.readySeq
}

func (c *refCPU) markReady(t *refTask) {
	t.ready = true
	t.readySeq = c.seq
	c.seq++
	c.ready = append(c.ready, t)
}

func (c *refCPU) best() int {
	best := -1
	for i, t := range c.ready {
		if best < 0 || refBeats(t, c.ready[best]) {
			best = i
		}
	}
	return best
}

func (c *refCPU) reschedule() {
	best := c.best()
	if c.cur != nil {
		if !c.intEnabled || best < 0 {
			return
		}
		if b := c.ready[best]; b.ipl < c.cur.ipl || b.ipl == c.cur.ipl && b.prio <= c.cur.prio {
			return
		}
		c.preempt()
	}
	if best < 0 {
		return
	}
	t := c.ready[best]
	c.ready = slices.Delete(c.ready, best, best+1)
	t.ready = false
	c.start(t)
}

func (c *refCPU) preempt() {
	t, now := c.cur, c.eng.Now()
	c.hook(c.id, t.id, c.curStart, now)
	t.items[0].cost -= now.Sub(c.curStart)
	c.eng.Cancel(c.completion)
	c.cur = nil
	seq := t.readySeq
	c.markReady(t)
	t.readySeq = seq
}

func (c *refCPU) start(t *refTask) {
	now := c.eng.Now()
	c.cur, c.curStart = t, now
	it := &t.items[0]
	run := it.cost
	if it.lock != nil {
		it.spin = it.lock.reserve(now, it.cost)
		it.savedInt, c.intEnabled = c.intEnabled, false
		run += it.spin
	}
	c.completion = c.eng.AfterCall(run, func(a, _ any) { a.(*refCPU).complete() }, c, nil)
}

func (c *refCPU) complete() {
	t := c.cur
	it := t.items[0]
	t.items = t.items[1:]
	c.hook(c.id, t.id, c.curStart, c.eng.Now())
	c.cur = nil
	if it.lock != nil {
		c.intEnabled = it.savedInt
	}
	if len(t.items) > 0 {
		c.markReady(t)
	}
	if it.fn != nil {
		it.fn()
	}
	c.reschedule()
}

type refDispatch struct {
	cpus  [2]*refCPU
	tasks []*refTask
	lock  *FairLock
}

func newRefDispatch(eng *sim.Engine, hook spanHook) dispatcher {
	d := &refDispatch{lock: NewFairLock("l")}
	for i := range d.cpus {
		d.cpus[i] = &refCPU{eng: eng, id: i, intEnabled: true, hook: hook}
	}
	return d
}

func (d *refDispatch) newTask(cpu int, ipl IPL, prio int) {
	d.tasks = append(d.tasks, &refTask{id: len(d.tasks), ipl: ipl, prio: prio, cpu: d.cpus[cpu]})
}

func (d *refDispatch) enqueue(t *refTask, it refItem) {
	t.items = append(t.items, it)
	if c := t.cpu; !t.ready && t != c.cur {
		c.markReady(t)
	}
	t.cpu.reschedule()
}

func (d *refDispatch) post(task int, cost sim.Duration, fn func()) {
	d.enqueue(d.tasks[task], refItem{cost: cost, fn: fn})
}
func (d *refDispatch) postLocked(task int, cost sim.Duration, fn func()) {
	d.enqueue(d.tasks[task], refItem{cost: cost, fn: fn, lock: d.lock})
}
func (d *refDispatch) disable(cpu int) bool {
	c := d.cpus[cpu]
	was := c.intEnabled
	c.intEnabled = false
	return was
}
func (d *refDispatch) restore(cpu int, saved bool) {
	c := d.cpus[cpu]
	c.intEnabled = saved
	if saved {
		c.reschedule()
	}
}

// --- the script ---

// runDispatch decodes data into a script and runs it on the dispatcher
// mk builds, returning every run-hook span and commit-fn run in order.
//
// The first byte sets the initial task count (2–7), two bytes each then
// give a task's CPU, IPL and priority; the rest is ops of four bytes:
// kind, task, cost and the gap since the previous op, in µs.
func runDispatch(data []byte, mk func(*sim.Engine, spanHook) dispatcher) []string {
	eng := sim.NewEngine()
	var log []string
	d := mk(eng, func(cpu, task int, start, end sim.Time) {
		log = append(log, fmt.Sprintf("cpu%d t%d [%d,%d)", cpu, task, start, end))
	})
	if len(data) == 0 {
		return nil
	}
	n := 2 + int(data[0])%6
	data = data[1:]
	newTask := func(a, b byte) {
		d.newTask(int(a)&1, IPL(int(a>>1)%4*2), int(b)%3)
	}
	for i := 0; i < n; i++ {
		var a, b byte
		if len(data) >= 2 {
			a, b, data = data[0], data[1], data[2:]
		}
		newTask(a, b)
	}
	var at sim.Time
	for op := 0; len(data) >= 4 && op < 300; data, op = data[4:], op+1 {
		kind, task, cost := data[0]%6, int(data[1])%n, sim.Duration(data[2]%64)*us
		at = at.Add(sim.Duration(data[3]) * us)
		label := fmt.Sprintf("op%d", op)
		fn := func() { log = append(log, fmt.Sprintf("%s at %d", label, eng.Now())) }
		switch kind {
		case 0: // a post whose commit posts a follow-up to the next task
			next := (task + 1) % n
			eng.At(at, func() {
				d.post(task, cost, func() {
					fn()
					d.post(next, cost/2, nil)
				})
			})
		case 1:
			eng.At(at, func() { d.post(task, cost, fn) })
		case 2:
			eng.At(at, func() { d.postLocked(task, cost, fn) })
		case 3: // an interrupt-disabled window on the task's CPU
			cpu, saved := int(data[1])&1, false
			eng.At(at, func() { saved = d.disable(cpu) })
			eng.At(at.Add(cost), func() { d.restore(cpu, saved) })
		case 4: // a task created mid-run, possibly at a new level
			if n < 12 {
				a, b := data[1], data[2]
				eng.At(at, func() { newTask(a, b) })
				n++
			}
		case 5: // identical posts, which queue run-length
			eng.At(at, func() {
				for i := 0; i < 3; i++ {
					d.post(task, cost, nil)
				}
			})
		}
	}
	eng.Run(sim.Time(sim.Second))
	return log
}

// FuzzCPUDispatch runs each fuzzed script (see runDispatch) on the CPU
// and on the reference scheduler and demands the same log.
func FuzzCPUDispatch(f *testing.F) {
	f.Add([]byte{})
	// A thread task preempted by a device interrupt resumes ahead of
	// its same-level peer.
	f.Add([]byte{1, 0, 0, 0, 0, 4, 0, 1, 0, 40, 0, 1, 1, 10, 5, 1, 2, 5, 5})
	// An interrupt-disabled window defers a preemption; locked items
	// on both CPUs spin on the shared lock.
	f.Add([]byte{2, 0, 0, 4, 0, 1, 0, 3, 0, 1, 0, 50, 0, 3, 0, 20, 5, 1, 1, 5, 1,
		2, 2, 30, 0, 2, 3, 30, 1, 2, 0, 10, 0})
	// Tasks created mid-run open a middle level and a top level while
	// two lower tasks wait.
	f.Add([]byte{0, 0, 0, 0, 2, 1, 0, 60, 0, 1, 1, 60, 0, 4, 0, 1, 10, 1, 2, 10, 1,
		4, 4, 0, 1, 1, 3, 5, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		got := runDispatch(data, newSysDispatch)
		want := runDispatch(data, newRefDispatch)
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("diverges at entry %d: got %q, reference %q", i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%d entries, reference %d", len(got), len(want))
		}
	})
}

// TestCPUDispatchMatchesReference runs random scripts through both
// schedulers, so the comparison runs in every go test, not only under
// -fuzz.
func TestCPUDispatchMatchesReference(t *testing.T) {
	rng := sim.NewRNG(1)
	for round := 0; round < 200; round++ {
		data := make([]byte, 16+rng.Intn(400))
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		got := runDispatch(data, newSysDispatch)
		want := runDispatch(data, newRefDispatch)
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: dispatch differs from the reference scheduler (%d vs %d entries)",
				round, len(got), len(want))
		}
	}
}
