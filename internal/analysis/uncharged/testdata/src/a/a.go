// Package a is the uncharged violation/allowed fixture.
package a

import (
	"livelock/internal/cpu"
	"livelock/internal/prov"
	"livelock/internal/sim"
)

type model struct {
	eng  *sim.Engine
	task *cpu.Task
	lock *cpu.FairLock
	hits int
}

func (m *model) work() { m.hits++ }

// chain does its work through another local call, so the tree has calls
// but still no Post.
func (m *model) chain() { m.work() }

// chargedTick posts its work to a task: cycles are accounted. The
// self-rescheduling AfterCall is bookkeeping and does not hide the Post.
func chargedTick(a, b any) {
	m := a.(*model)
	m.task.Post(3, nil)
	m.eng.AfterCall(7, chargedTick, m, nil)
}

// freeTick mutates model state through local calls without ever posting:
// simulated work the CPU never sees.
func freeTick(a, b any) {
	m := a.(*model)
	m.work()
	m.eng.AfterCall(7, freeTick, m, nil) // want `engine-scheduled callback does work without charging CPU cycles`
}

func start(m *model) {
	m.eng.AfterCall(7, chargedTick, m, nil) // fine: posts on every firing
	m.eng.AfterCall(7, freeTick, m, nil)    // want `engine-scheduled callback does work without charging CPU cycles`

	//lkvet:allow uncharged models an external host, not the router CPU
	m.eng.AfterCall(7, freeTick, m, nil)

	m.eng.After(7, m.chain) // want `engine-scheduled callback does work without charging CPU cycles`
}

// timed owns a Timer; Init binds its callback, so the callback is
// checked where it is bound, as AtCall's is where it is scheduled.
type timed struct {
	m  *model
	tm sim.Timer
}

func chargedTimer(a, b any) { a.(*timed).m.task.Post(3, nil) }

func freeTimer(a, b any) { a.(*timed).m.work() }

func bindTimers(t *timed) {
	t.tm.Init(chargedTimer, t, nil) // fine: posts on every firing
	t.tm.Init(freeTimer, t, nil)    // want `engine-scheduled callback does work without charging CPU cycles`
	t.m.eng.ArmAfter(&t.tm, 7)
}

// onlyBookkeeping clears a field; control without work is free by rule.
func onlyBookkeeping(a, b any) { a.(*model).hits = 0 }

func bookkeeping(m *model) {
	m.eng.AfterCall(7, onlyBookkeeping, m, nil) // fine: no calls in the tree
}

func zeroPost(m *model) {
	m.task.Post(0, m.work) // want `Task\.Post with zero cost`
	m.task.Post(0, nil)    // fine: nil fn sequences bookkeeping
	m.task.Post(3, m.work) // fine: real cost
}

func zeroPostVariants(m *model) {
	m.task.PostCenter(0, prov.CenterIPInput, m.work)                // want `Task\.PostCenter with zero cost`
	m.task.PostCenter(0, prov.CenterIPInput, nil)                   // fine: nil fn sequences bookkeeping
	m.task.PostCenter(3, prov.CenterIPInput, m.work)                // fine: real cost
	m.task.PostLocked(m.lock, 0, prov.CenterIPInput, m.work)        // want `Task\.PostLocked with zero cost`
	m.task.PostLocked(m.lock, 3, prov.CenterIPInput, m.work)        // fine: real cost
	m.task.PostLockedTail(m.lock, 0, 1, prov.CenterIPInput, m.work) // want `Task\.PostLockedTail with zero cost`
	m.task.PostLockedTail(m.lock, 0, 1, prov.CenterIPInput, nil)    // fine: nil fn sequences bookkeeping
	m.task.PostLockedTail(m.lock, 3, 1, prov.CenterIPInput, m.work) // fine: real cost
	m.task.PostLockedTail(nil, 3, 1, prov.CenterIPInput, m.work)    // fine: one plain item of the real cost
}

// chargedCenterTick and chargedLockedTick reach the CPU only through
// the SMP dispatch variants; both charge cycles and must satisfy the
// engine-callback check.
func chargedCenterTick(a, b any) {
	m := a.(*model)
	m.task.PostCenter(3, prov.CenterIPInput, nil)
	m.eng.AfterCall(7, chargedCenterTick, m, nil)
}

func chargedLockedTick(a, b any) {
	m := a.(*model)
	m.task.PostLocked(m.lock, 3, prov.CenterIPInput, nil)
	m.eng.AfterCall(7, chargedLockedTick, m, nil)
}

// chargedTailTick reaches the CPU only through PostLockedTail, which
// charges its body, spin and tail.
func chargedTailTick(a, b any) {
	m := a.(*model)
	m.task.PostLockedTail(m.lock, 3, 1, prov.CenterIPInput, nil)
	m.eng.AfterCall(7, chargedTailTick, m, nil)
}

func startSMP(m *model) {
	m.eng.AfterCall(7, chargedCenterTick, m, nil) // fine: PostCenter charges
	m.eng.AfterCall(7, chargedLockedTick, m, nil) // fine: PostLocked charges spin and hold
	m.eng.AfterCall(7, chargedTailTick, m, nil)   // fine: PostLockedTail charges body, spin and tail
}

func hooks(c *cpu.CPU, m *model) {
	c.SetRunHook(func(t *cpu.Task, start, end sim.Time) { // want `run hook re-enters the CPU`
		m.task.Post(1, nil)
	})
	c.SetRunHook(func(t *cpu.Task, start, end sim.Time) {
		m.hits++ // observing is fine
	})
}
