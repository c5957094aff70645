// Package a is the lockguard fixture: guarded accesses in and out of
// their critical sections, requires propagation, boot serialization,
// lock-order inversion, and annotation hygiene.
package a

import (
	"livelock/internal/cpu"
	"livelock/internal/prov"
	"livelock/internal/sim"
)

const op = 10 * sim.Microsecond

type state struct {
	//lkvet:guards tblLock
	table map[int]int
	//lkvet:guards qLock
	q []int

	task    *cpu.Task
	tblLock *cpu.FairLock
	qLock   *cpu.FairLock
	auxLock *cpu.FairLock
}

//lkvet:guards tblLock
var spare int

// touchOutside touches guarded state from a bare function: no lock.
func touchOutside(s *state) {
	s.table[1] = 1 // want `guarded state table requires "tblLock" \(held: none\)`
	spare++        // want `guarded state spare requires "tblLock" \(held: none\)`
}

// touchRequired declares its contract; its body is clean and its
// callers are checked instead.
//
//lkvet:requires tblLock
func touchRequired(s *state) {
	s.table[2] = 2
}

// setup runs in a fully-serialized context: boot satisfies every guard.
//
//lkvet:requires boot
func setup(s *state) {
	s.table[0] = 0
	s.q = nil
	touchRequired(s) // boot satisfies the requires contract too
}

// insideLock holds exactly the right lock for the table but the wrong
// one for the queue.
func insideLock(s *state) {
	s.task.PostLocked(s.tblLock, op, prov.CenterIPInput, func() {
		s.table[3] = 3   // the PostLocked fn holds tblLock
		touchRequired(s) // and satisfies the callee's contract
		s.q = nil        // want `guarded state q requires "qLock" \(held: tblLock\)`
	})
}

// propagation: calling a requires function without its lock is the
// violation, wherever the access itself lives.
func propagation(s *state) {
	touchRequired(s) // want `call to touchRequired requires "tblLock" \(held: none\)`
	setup(s)         // want `call to setup requires "boot" \(held: none\)`
	s.task.PostLocked(s.tblLock, op, prov.CenterIPInput, func() {
		setup(s) // want `call to setup requires "boot" \(held: tblLock\)`
	})
}

// tail: a PostLockedTail fn is the locked tail of a split cost and
// holds its lock exactly like a PostLocked fn.
func tail(s *state) {
	s.task.PostLockedTail(s.tblLock, op, op, prov.CenterIPInput, func() {
		s.table[6] = 6
		touchRequired(s)
		s.q = nil // want `guarded state q requires "qLock" \(held: tblLock\)`
	})
}

// nilBranches: a branch that runs only while a lock is nil holds it —
// a nil lock means one CPU, so nothing shares the state it guards.
func nilBranches(s *state) {
	if s.tblLock == nil {
		s.table[7] = 7
		s.q = nil // want `guarded state q requires "qLock" \(held: tblLock\)`
	}
	if s.qLock != nil {
		s.q = nil // want `guarded state q requires "qLock" \(held: none\)`
	} else {
		s.q = nil
	}
	if s.tblLock == nil && s.qLock == nil {
		s.table[8] = 8
		s.q = nil
	}
	if s.tblLock == nil || s.qLock == nil {
		s.q = nil // want `guarded state q requires "qLock" \(held: none\)`
	}
}

// tailOrder: PostLockedTail both holds (its fn) and acquires (the call)
// a lock for the lock-order graph; the second nesting inverts the first.
func tailOrder(s *state) {
	s.task.PostLockedTail(s.tblLock, op, op, prov.CenterIPInput, func() {
		s.task.PostLockedTail(s.auxLock, op, op, prov.CenterIPInput, nil)
	})
	s.task.PostLockedTail(s.auxLock, op, op, prov.CenterIPInput, func() {
		s.task.PostLocked(s.tblLock, op, prov.CenterIPInput, nil) // want `lock-order cycle: acquiring "tblLock" while holding "auxLock"`
	})
}

// deferred: a Post fn runs later, unlocked — it inherits nothing from
// the PostLocked fn that created it.
func deferred(s *state) {
	s.task.PostLocked(s.tblLock, op, prov.CenterIPInput, func() {
		s.task.Post(op, func() {
			s.table[4] = 4 // want `guarded state table requires "tblLock" \(held: none\)`
		})
	})
}

// annotatedClosure is a callback the dispatcher promises to run under
// tblLock; the annotation is that promise.
func annotatedClosure(s *state) func() {
	//lkvet:requires tblLock
	f := func() {
		s.table[5] = 5
	}
	return f
}

// postsNested establishes the order tblLock -> qLock via a synchronous
// helper called from inside the critical section.
func postsNested(s *state) {
	s.task.PostLocked(s.tblLock, op, prov.CenterIPInput, func() {
		helperPostsQ(s)
	})
}

func helperPostsQ(s *state) {
	s.task.PostLocked(s.qLock, op, prov.CenterIPInput, nil)
}

// inverted acquires in the opposite order: qLock held, tblLock posted.
func inverted(s *state) {
	s.task.PostLocked(s.qLock, op, prov.CenterIPInput, func() {
		s.task.PostLocked(s.tblLock, op, prov.CenterIPInput, nil) // want `lock-order cycle: acquiring "tblLock" while holding "qLock"`
	})
}

// reposted: tail-recursive re-posting of the held lock is a loop, not
// nesting, and must not create self-edges.
func reposted(s *state) {
	s.task.PostLocked(s.qLock, op, prov.CenterIPInput, func() {
		reposted(s)
	})
}

// excused: a deliberately lock-free read carries an allow with the
// reviewed reason.
func excused(s *state) int {
	//lkvet:allow lockguard racy length peek, re-validated under qLock before use
	return len(s.q)
}

//lkvet:guards // want `malformed //lkvet:guards: at least one lock name is required`
var unguardable int

//lkvet:guards tblLock qLock // want `malformed //lkvet:guards: exactly one lock guards a declaration`
var overguarded int

//lkvet:requires tblLock // want `lock annotation attaches to nothing`
var notAFunc int
