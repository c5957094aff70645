package a

import (
	"livelock/internal/cpu"
	"livelock/internal/prov"
	"livelock/internal/sim"
)

// owner binds its per-item work once and hands the item over in a field.
type owner struct {
	task *cpu.Task
	lock *cpu.FairLock
	next func()
	item *node
}

func work() {}

func (o *owner) step() {}

func post(o *owner, cost sim.Duration, sched func()) {
	o.task.Post(cost, o.next)    // bound-once field: fine
	o.task.Post(cost, work)      // package-level func: fine
	o.task.Post(cost, sched)     // func variable: fine
	o.task.Post(cost, func() {}) // capture-free literal: fine
	o.task.Post(cost, nil)       // bookkeeping item: fine

	o.task.Post(cost, func() { o.item = nil })                                    // want `closure literal passed to Task\.Post captures o`
	o.task.Post(cost, o.step)                                                     // want `bound method value passed to Task\.Post allocates`
	o.task.PostCenter(cost, prov.CenterIPInput, o.step)                           // want `bound method value passed to Task\.PostCenter`
	o.task.PostLocked(o.lock, cost, prov.CenterIPInput, func() { o.item = nil })  // want `closure literal passed to Task\.PostLocked captures o`
	o.task.PostLockedTail(o.lock, cost, cost, prov.CenterIPInput, (o.step))       // want `bound method value passed to Task\.PostLockedTail`
	o.task.PostLockedTail(o.lock, cost, cost, prov.CenterIPInput, o.next)         // bound-once field: fine
	o.task.PostLockedTail(nil, cost, cost, prov.CenterIPInput, func() { work() }) // capture-free literal: fine

	//lkvet:allow hotalloc reply path builds a fresh frame per request anyway
	o.task.Post(cost, func() { o.item = nil })
}
