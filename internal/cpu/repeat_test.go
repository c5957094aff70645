package cpu

import (
	"runtime"
	"testing"

	"livelock/internal/prov"
	"livelock/internal/sim"
)

type span struct {
	task       string
	start, end sim.Time
}

// starvedBacklog builds a starved thread-level task under a 50 ms
// software-interrupt hog and posts it n items of 7 µs, then lets it
// run against a same-priority peer with three 11 µs items and two
// device interrupts that preempt it mid-item. With identical set, the
// posts are identical (so they run-length queue); otherwise adjacent
// posts alternate cost centers, so each is its own item. It returns
// the run-hook spans, the CPU, and the starved task's Pending and the
// allocations its posts after the first made while it was starved.
func starvedBacklog(t *testing.T, n int, identical bool) ([]span, *CPU, int, uint64) {
	t.Helper()
	eng, c := newCPU()
	hog := c.NewTask("hog", IPLSoft, 0, ClassSoft)
	starved := c.NewTask("starved", IPLThread, 0, ClassKernel)
	peer := c.NewTask("peer", IPLThread, 0, ClassKernel)
	intr := c.NewTask("intr", IPLDevice, 0, ClassIntr)
	var spans []span
	c.SetRunHook(func(task *Task, start, end sim.Time) {
		spans = append(spans, span{task.Name(), start, end})
	})

	hog.Post(50*sim.Millisecond, nil)
	posts := 0
	post := func() {
		center := prov.CenterClock
		if !identical && posts%2 == 1 {
			center = prov.CenterUserProc
		}
		starved.PostCenter(7*us, center, nil)
		posts++
	}
	post()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for posts < n {
		post()
	}
	runtime.ReadMemStats(&after)
	pending := starved.Pending()
	for i := 0; i < 3; i++ {
		peer.Post(11*us, nil)
	}
	// Once the hog finishes at 50 ms the starved task and its peer
	// alternate; 40 µs later starved is 4 µs into its third item. The
	// second interrupt lands mid-item in the starved run after the
	// peer has drained.
	for _, at := range []sim.Duration{50*sim.Millisecond + 40*us, 80*sim.Millisecond + 3*us} {
		eng.At(sim.Time(at), func() { intr.Post(5*us, nil) })
	}
	eng.Run(sim.Time(sim.Second))
	if starved.Pending() != 0 || starved.Consumed() != sim.Duration(n)*7*us {
		t.Fatalf("starved task left %d items, consumed %v, want 0 and %v",
			starved.Pending(), starved.Consumed(), sim.Duration(n)*7*us)
	}
	return spans, c, pending, after.Mallocs - before.Mallocs
}

// A starved task's backlog of identical posts is one run-length queued
// item: posting it stops allocating after the first, Pending counts
// every copy, and once the task runs every copy is dispatched, charged,
// round-robined against a same-priority peer and preempted exactly as
// distinct items are — the run-hook span sequence is the same.
func TestStarvedIdenticalPostsRunLength(t *testing.T) {
	const n = 10000
	got, c, pending, allocs := starvedBacklog(t, n, true)
	if pending != n {
		t.Fatalf("Pending = %d after %d identical posts, want %d", pending, n, n)
	}
	if allocs != 0 {
		t.Fatalf("%d identical posts to a starved task after its first allocate %d objects, want 0", n-1, allocs)
	}
	want, ref, _, _ := starvedBacklog(t, n, false)
	if len(got) != len(want) {
		t.Fatalf("%d run-hook spans, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("span %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if c.Dispatches() != ref.Dispatches() || c.Preemptions() != ref.Preemptions() {
		t.Fatalf("dispatches/preemptions %d/%d, want %d/%d",
			c.Dispatches(), c.Preemptions(), ref.Dispatches(), ref.Preemptions())
	}
	if c.Preemptions() != 2 {
		t.Fatalf("Preemptions = %d, want the 2 mid-item interrupts", c.Preemptions())
	}
	// The spans must show the round-robin: starved, peer, starved, ...
	for i, name := range []string{"hog", "starved", "peer", "starved", "peer", "starved", "intr", "starved", "peer", "starved"} {
		if got[i].task != name {
			t.Fatalf("span %d ran %s, want %s (spans %+v)", i, got[i].task, name, got[:10])
		}
	}
}
