package cpu

import (
	"fmt"
	"sort"
	"strings"
)

// Lockdep is the runtime half of the lock-discipline verifier (the
// static half is the lockguard pass in internal/analysis/lockguard).
// Guarded objects register the FairLock that protects them; in debug
// builds every touch of a guarded object asserts that the touching
// context is a critical section under exactly that lock, and every
// nested acquisition feeds a lock-order graph whose cycles predict
// deadlock from a single schedule — the interleaving that would
// actually deadlock never has to be reached, which matters because the
// engine runs one fixed interleave per seed.
//
// The model exploits the simulator's structure: all virtual CPUs run in
// one goroutine and a work item's fn executes atomically at its
// completion instant, so at any real-time moment at most one critical
// section's commit fn is on the stack. A single (curCPU, curLock) pair
// therefore identifies "the" current critical section exactly. Locks,
// however, are held across *simulated* time — a FairLock is owned by
// some CPU for its whole spin+hold window — so a touch from another
// CPU's unlocked item while the window is open is distinguishable as
// held-on-wrong-CPU rather than merely not-held.
//
// A nil *Lockdep is valid and inert: every exported method is a no-op,
// and the CPU dispatch hooks are all behind `ld != nil` checks, so the
// disabled path adds no allocations and no work beyond a nil compare.
type Lockdep struct {
	guards map[any]*FairLock // guarded object -> declared lock
	what   map[any]string    // guarded object -> description for diagnostics

	// edges is the runtime lock-order graph: edges[a][b] means a
	// critical section under a posted (logically: nested) an
	// acquisition of b. Any cycle predicts deadlock.
	edges map[*FairLock]map[*FairLock]bool

	// owner tracks which CPU most recently reserved each lock and has
	// not yet completed its critical section; used to enrich
	// violations with who actually holds the lock.
	owner map[*FairLock]*CPU

	// curCPU/curLock identify the critical-section commit fn currently
	// executing, nil outside any locked item's fn.
	curCPU  *CPU
	curLock *FairLock

	onViolation func(string) // nil means panic
	violations  uint64
	checks      uint64
}

// NewLockdep returns an empty checker. It must be installed with
// System.SetLockdep before the engine runs.
func NewLockdep() *Lockdep {
	return &Lockdep{
		guards: make(map[any]*FairLock),
		what:   make(map[any]string),
		edges:  make(map[*FairLock]map[*FairLock]bool),
		owner:  make(map[*FairLock]*CPU),
	}
}

// Guard declares that obj (a pointer to some shared structure) is
// protected by l. what names the object in diagnostics.
func (ld *Lockdep) Guard(obj any, l *FairLock, what string) {
	if ld == nil {
		return
	}
	if obj == nil {
		panic("lockdep: Guard of nil object")
	}
	if l == nil {
		panic("lockdep: Guard with nil lock")
	}
	ld.guards[obj] = l
	ld.what[obj] = what
}

// SetOnViolation installs a reporting callback; without one, any
// violation panics (tests and the explore plane install collectors).
func (ld *Lockdep) SetOnViolation(fn func(string)) {
	if ld == nil {
		return
	}
	ld.onViolation = fn
}

// Violations returns the number of discipline violations observed.
func (ld *Lockdep) Violations() uint64 {
	if ld == nil {
		return 0
	}
	return ld.violations
}

// Checks returns the number of guarded touches asserted (for tests
// that want to prove the checker actually ran).
func (ld *Lockdep) Checks() uint64 {
	if ld == nil {
		return 0
	}
	return ld.checks
}

// Check asserts that the currently-executing context is a critical
// section under obj's declared lock. Nil-receiver safe so call sites
// need no enablement branches; the conversion of a pointer argument to
// `any` does not allocate.
func (ld *Lockdep) Check(obj any) {
	if ld == nil {
		return
	}
	ld.check(obj)
}

func (ld *Lockdep) check(obj any) {
	ld.checks++
	l, ok := ld.guards[obj]
	if !ok {
		ld.violate(fmt.Sprintf("lockdep: touch of unregistered object %T", obj))
		return
	}
	if ld.curLock == l {
		return
	}
	name := ld.what[obj]
	switch {
	case ld.curLock != nil:
		ld.violate(fmt.Sprintf("lockdep: %s (guarded by %q) touched inside a critical section under %q on cpu%d",
			name, l.Name(), ld.curLock.Name(), ld.curCPU.ID()))
	case ld.owner[l] != nil:
		ld.violate(fmt.Sprintf("lockdep: %s touched while its lock %q is held by cpu%d (touching context does not hold it)",
			name, l.Name(), ld.owner[l].ID()))
	default:
		ld.violate(fmt.Sprintf("lockdep: %s (guarded by %q) touched outside any critical section",
			name, l.Name()))
	}
}

// acquire records that c reserved l (dispatch time of a locked item):
// the spin+hold window opens here and closes at release.
func (ld *Lockdep) acquire(c *CPU, l *FairLock) {
	ld.owner[l] = c
}

// release closes c's window on l. A later reserver may already have
// overwritten the owner entry (FIFO contention); leave it in place.
func (ld *Lockdep) release(c *CPU, l *FairLock) {
	if ld.owner[l] == c {
		delete(ld.owner, l)
	}
}

// enter/exit bracket a locked item's commit fn: the fn runs logically
// at the unlock instant, still inside the critical section.
func (ld *Lockdep) enter(c *CPU, l *FairLock) {
	ld.curCPU, ld.curLock = c, l
}

func (ld *Lockdep) exit() {
	ld.curCPU, ld.curLock = nil, nil
}

// posted records a PostLocked(l) issued from inside a critical section
// under curLock — the simulator's form of nested acquisition — as a
// lock-order edge, and rejects any edge that completes a cycle. Posts
// from unlocked contexts (or before the engine runs) carry no ordering
// obligation. Self-edges are tail-recursive re-posts of the same
// section (the kernel's per-packet loops), not nesting.
func (ld *Lockdep) posted(l *FairLock) {
	from := ld.curLock
	if from == nil || from == l {
		return
	}
	m := ld.edges[from]
	if m == nil {
		m = make(map[*FairLock]bool)
		ld.edges[from] = m
	}
	if m[l] {
		return
	}
	m[l] = true
	if path := ld.findPath(l, from, map[*FairLock]bool{}); path != nil {
		names := make([]string, 0, len(path)+1)
		names = append(names, from.Name())
		for _, p := range path {
			names = append(names, p.Name())
		}
		ld.violate(fmt.Sprintf("lockdep: lock-order cycle: %s (edge %q -> %q closes it)",
			strings.Join(names, " -> "), from.Name(), l.Name()))
	}
}

// findPath returns the node sequence from `from` to `to` along order
// edges (inclusive of both), or nil if unreachable. Iteration order is
// made deterministic by sorting neighbors by name so violation text is
// stable across runs.
func (ld *Lockdep) findPath(from, to *FairLock, seen map[*FairLock]bool) []*FairLock {
	if from == to {
		return []*FairLock{from}
	}
	if seen[from] {
		return nil
	}
	seen[from] = true
	next := make([]*FairLock, 0, len(ld.edges[from]))
	for n := range ld.edges[from] {
		next = append(next, n)
	}
	sort.Slice(next, func(i, j int) bool { return next[i].Name() < next[j].Name() })
	for _, n := range next {
		if path := ld.findPath(n, to, seen); path != nil {
			return append([]*FairLock{from}, path...)
		}
	}
	return nil
}

// OrderEdges returns the observed lock-order graph as "a->b" strings,
// sorted, for tests and explore-plane fingerprinting.
func (ld *Lockdep) OrderEdges() []string {
	if ld == nil {
		return nil
	}
	var out []string
	for a, m := range ld.edges {
		for b := range m {
			out = append(out, a.Name()+"->"+b.Name())
		}
	}
	sort.Strings(out)
	return out
}

func (ld *Lockdep) violate(msg string) {
	ld.violations++
	if ld.onViolation != nil {
		ld.onViolation(msg)
		return
	}
	panic(msg)
}
