package cpu

import (
	"cmp"
	"slices"
	"testing"

	"livelock/internal/sim"
)

const us = sim.Microsecond

func newCPU() (*sim.Engine, *CPU) {
	eng := sim.NewEngine()
	return eng, New(eng)
}

func TestRunsPostedWork(t *testing.T) {
	eng, c := newCPU()
	task := c.NewTask("a", IPLThread, 0, ClassKernel)
	done := sim.Time(-1)
	task.Post(100*us, func() { done = eng.Now() })
	eng.Run(sim.Time(sim.Second))
	if done != sim.Time(100*us) {
		t.Fatalf("work completed at %v, want 100µs", done)
	}
	if task.Consumed() != 100*us {
		t.Fatalf("Consumed = %v, want 100µs", task.Consumed())
	}
}

func TestFIFOWithinTask(t *testing.T) {
	eng, c := newCPU()
	task := c.NewTask("a", IPLThread, 0, ClassKernel)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		task.Post(10*us, func() { order = append(order, i) })
	}
	eng.Run(sim.Time(sim.Second))
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestHigherIPLPreempts(t *testing.T) {
	eng, c := newCPU()
	low := c.NewTask("low", IPLThread, 0, ClassUser)
	high := c.NewTask("high", IPLDevice, 0, ClassIntr)

	var lowDone, highDone sim.Time
	low.Post(100*us, func() { lowDone = eng.Now() })
	// Interrupt arrives mid-way through the low task.
	eng.At(sim.Time(40*us), func() {
		high.Post(30*us, func() { highDone = eng.Now() })
	})
	eng.Run(sim.Time(sim.Second))

	if highDone != sim.Time(70*us) {
		t.Fatalf("high done at %v, want 70µs (preempted at 40, ran 30)", highDone)
	}
	if lowDone != sim.Time(130*us) {
		t.Fatalf("low done at %v, want 130µs (60µs remaining after resume)", lowDone)
	}
	if c.Preemptions() != 1 {
		t.Fatalf("Preemptions = %d, want 1", c.Preemptions())
	}
}

func TestSameIPLDoesNotPreempt(t *testing.T) {
	eng, c := newCPU()
	a := c.NewTask("a", IPLDevice, 0, ClassIntr)
	b := c.NewTask("b", IPLDevice, 0, ClassIntr)

	var aDone, bDone sim.Time
	a.Post(100*us, func() { aDone = eng.Now() })
	eng.At(sim.Time(10*us), func() {
		b.Post(10*us, func() { bDone = eng.Now() })
	})
	eng.Run(sim.Time(sim.Second))

	if aDone != sim.Time(100*us) {
		t.Fatalf("a done at %v: same-IPL arrival preempted it", aDone)
	}
	if bDone != sim.Time(110*us) {
		t.Fatalf("b done at %v, want 110µs", bDone)
	}
	if c.Preemptions() != 0 {
		t.Fatalf("Preemptions = %d, want 0", c.Preemptions())
	}
}

func TestPriorityWithinIPL(t *testing.T) {
	eng, c := newCPU()
	lo := c.NewTask("lo", IPLThread, 1, ClassUser)
	hi := c.NewTask("hi", IPLThread, 9, ClassKernel)

	var order []string
	// Post low first while CPU is busy, then high: high must run first
	// once the blocker finishes.
	blocker := c.NewTask("blk", IPLDevice, 0, ClassIntr)
	blocker.Post(10*us, nil)
	lo.Post(10*us, func() { order = append(order, "lo") })
	hi.Post(10*us, func() { order = append(order, "hi") })
	eng.Run(sim.Time(sim.Second))
	if len(order) != 2 || order[0] != "hi" || order[1] != "lo" {
		t.Fatalf("order = %v, want [hi lo]", order)
	}
}

func TestThreadPriorityPreempts(t *testing.T) {
	// Within IPLThread, a higher-priority thread preempts a lower one
	// (the modified kernel's polling thread vs user processes).
	eng, c := newCPU()
	user := c.NewTask("user", IPLThread, 1, ClassUser)
	poll := c.NewTask("poll", IPLThread, 9, ClassKernel)

	var userDone, pollDone sim.Time
	user.Post(100*us, func() { userDone = eng.Now() })
	eng.At(sim.Time(50*us), func() {
		poll.Post(20*us, func() { pollDone = eng.Now() })
	})
	eng.Run(sim.Time(sim.Second))
	if pollDone != sim.Time(70*us) || userDone != sim.Time(120*us) {
		t.Fatalf("poll=%v user=%v, want 70µs/120µs", pollDone, userDone)
	}
}

func TestEqualPriorityRoundRobin(t *testing.T) {
	eng, c := newCPU()
	a := c.NewTask("a", IPLThread, 0, ClassUser)
	b := c.NewTask("b", IPLThread, 0, ClassUser)
	var order []string
	var repost func(task *Task, name string, n int)
	repost = func(task *Task, name string, n int) {
		if n == 0 {
			return
		}
		task.Post(10*us, func() {
			order = append(order, name)
			repost(task, name, n-1)
		})
	}
	repost(a, "a", 3)
	repost(b, "b", 3)
	eng.Run(sim.Time(sim.Second))
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v (item-granularity round-robin)", order, want)
		}
	}
}

func TestPreemptedResumesBeforeLaterPeer(t *testing.T) {
	eng, c := newCPU()
	a := c.NewTask("a", IPLThread, 0, ClassUser)
	b := c.NewTask("b", IPLThread, 0, ClassUser)
	intr := c.NewTask("i", IPLDevice, 0, ClassIntr)

	var order []string
	a.Post(100*us, func() { order = append(order, "a") })
	eng.At(sim.Time(10*us), func() {
		intr.Post(10*us, nil)                                // preempts a
		b.Post(10*us, func() { order = append(order, "b") }) // same prio as a
	})
	eng.Run(sim.Time(sim.Second))
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v, want [a b]: preempted task resumes first", order)
	}
}

// TestManyLevels spans more (ipl, prio) ranks than one word of the
// ready mask holds, registered out of order, the last of them in the
// middle while every other task waits: all run in rank order, and the
// tasks sharing a rank in the order they were posted.
func TestManyLevels(t *testing.T) {
	eng, c := newCPU()
	hog := c.NewTask("hog", IPLClock, 0, ClassClock)
	hog.Post(10*us, nil)
	type key struct {
		ipl  IPL
		prio int
	}
	var posted []key
	var order []key
	post := func(k key) {
		c.NewTask("", k.ipl, k.prio, ClassKernel).Post(us, func() { order = append(order, k) })
		posted = append(posted, k)
	}
	for j := 0; j < 150; j++ {
		i := j * 7 % 150 // every index below 150, shuffled
		post(key{IPL(i / 40), i / 2})
	}
	post(key{1, 1000}) // above every other IPL 1 task, below IPL 2
	eng.Run(sim.Time(sim.Second))

	want := slices.Clone(posted)
	slices.SortStableFunc(want, func(a, b key) int {
		return cmp.Or(cmp.Compare(b.ipl, a.ipl), cmp.Compare(b.prio, a.prio))
	})
	if !slices.Equal(order, want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
}

func TestNestedPreemption(t *testing.T) {
	eng, c := newCPU()
	thread := c.NewTask("t", IPLThread, 0, ClassUser)
	soft := c.NewTask("s", IPLSoft, 0, ClassSoft)
	dev := c.NewTask("d", IPLDevice, 0, ClassIntr)

	var done []string
	at := func(name string) func() { return func() { done = append(done, name) } }
	thread.Post(100*us, at("t"))
	eng.At(sim.Time(10*us), func() { soft.Post(50*us, at("s")) })
	eng.At(sim.Time(20*us), func() { dev.Post(10*us, at("d")) })
	eng.Run(sim.Time(sim.Second))
	// dev at 30, soft at 10+50+10(preempt)=70, thread at 160.
	if len(done) != 3 || done[0] != "d" || done[1] != "s" || done[2] != "t" {
		t.Fatalf("completion order %v, want [d s t]", done)
	}
	if got := eng.Now(); got < sim.Time(160*us) {
		t.Fatalf("clock %v", got)
	}
	if c.Preemptions() != 2 {
		t.Fatalf("Preemptions = %d, want 2", c.Preemptions())
	}
}

func TestAccounting(t *testing.T) {
	eng, c := newCPU()
	user := c.NewTask("u", IPLThread, 0, ClassUser)
	intr := c.NewTask("i", IPLDevice, 0, ClassIntr)
	user.Post(300*us, nil)
	eng.At(sim.Time(100*us), func() { intr.Post(100*us, nil) })
	eng.Run(sim.Time(1000 * us))

	if got := c.ClassTime(ClassUser); got != 300*us {
		t.Fatalf("user time = %v, want 300µs", got)
	}
	if got := c.ClassTime(ClassIntr); got != 100*us {
		t.Fatalf("intr time = %v, want 100µs", got)
	}
	if got := c.BusyTime(); got != 400*us {
		t.Fatalf("busy = %v, want 400µs", got)
	}
	if got := c.IdleTime(); got != 600*us {
		t.Fatalf("idle = %v, want 600µs", got)
	}
	u := c.Utilization()
	if u[ClassUser] < 0.29 || u[ClassUser] > 0.31 {
		t.Fatalf("user util = %v, want 0.3", u[ClassUser])
	}
	if u[ClassIdle] < 0.59 || u[ClassIdle] > 0.61 {
		t.Fatalf("idle util = %v, want 0.6", u[ClassIdle])
	}
}

func TestConsumedMidItem(t *testing.T) {
	eng, c := newCPU()
	task := c.NewTask("a", IPLThread, 0, ClassKernel)
	task.Post(100*us, nil)
	var mid sim.Duration
	eng.At(sim.Time(40*us), func() { mid = task.Consumed() })
	eng.Run(sim.Time(sim.Second))
	if mid != 40*us {
		t.Fatalf("Consumed mid-item = %v, want 40µs", mid)
	}
}

func TestIdleHook(t *testing.T) {
	eng, c := newCPU()
	task := c.NewTask("a", IPLThread, 0, ClassKernel)
	idles := 0
	c.OnIdle(func() { idles++ })
	task.Post(10*us, nil)
	eng.Run(sim.Time(100 * us))
	if idles != 1 {
		t.Fatalf("idle hook fired %d times, want 1", idles)
	}
	if !c.Idle() {
		t.Fatal("CPU should be idle")
	}
}

func TestIdleHookMayPostWork(t *testing.T) {
	eng, c := newCPU()
	task := c.NewTask("a", IPLThread, 0, ClassKernel)
	posted := false
	ran := false
	c.OnIdle(func() {
		if !posted {
			posted = true
			task.Post(10*us, func() { ran = true })
		}
	})
	task.Post(10*us, nil)
	eng.Run(sim.Time(sim.Second))
	if !ran {
		t.Fatal("work posted from idle hook never ran")
	}
}

func TestZeroCostWork(t *testing.T) {
	eng, c := newCPU()
	task := c.NewTask("a", IPLThread, 0, ClassKernel)
	ran := false
	task.Post(0, func() { ran = true })
	eng.Run(0)
	if !ran {
		t.Fatal("zero-cost work did not run")
	}
}

func TestNegativeCostPanics(t *testing.T) {
	_, c := newCPU()
	task := c.NewTask("a", IPLThread, 0, ClassKernel)
	defer func() {
		if recover() == nil {
			t.Fatal("negative cost did not panic")
		}
	}()
	task.Post(-1, nil)
}

func TestPostFromActionChains(t *testing.T) {
	eng, c := newCPU()
	task := c.NewTask("a", IPLDevice, 0, ClassIntr)
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 5 {
			task.Post(10*us, chain)
		}
	}
	task.Post(10*us, chain)
	eng.Run(sim.Time(sim.Second))
	if count != 5 {
		t.Fatalf("chained %d items, want 5", count)
	}
	if task.Consumed() != 50*us {
		t.Fatalf("Consumed = %v, want 50µs", task.Consumed())
	}
}

func TestManyPreemptionsAccounting(t *testing.T) {
	// A user task repeatedly interrupted: total consumed must still equal
	// the posted cost, and the finish time must equal the sum of all work.
	eng, c := newCPU()
	user := c.NewTask("u", IPLThread, 0, ClassUser)
	intr := c.NewTask("i", IPLDevice, 0, ClassIntr)
	var finish sim.Time
	user.Post(1000*us, func() { finish = eng.Now() })
	for i := 1; i <= 9; i++ {
		at := sim.Time(i * 100 * int(us))
		eng.At(at, func() { intr.Post(50*us, nil) })
	}
	eng.Run(sim.Time(sim.Second) * 10)
	if user.Consumed() != 1000*us {
		t.Fatalf("user consumed %v, want 1000µs", user.Consumed())
	}
	if intr.Consumed() != 450*us {
		t.Fatalf("intr consumed %v, want 450µs", intr.Consumed())
	}
	if finish != sim.Time(1450*us) {
		t.Fatalf("finish = %v, want 1450µs", finish)
	}
}

func TestDispatchCount(t *testing.T) {
	eng, c := newCPU()
	task := c.NewTask("a", IPLThread, 0, ClassKernel)
	task.Post(10*us, nil)
	task.Post(10*us, nil)
	eng.Run(sim.Time(sim.Second))
	if c.Dispatches() != 2 {
		t.Fatalf("Dispatches = %d, want 2", c.Dispatches())
	}
}

func TestInvalidClassPanics(t *testing.T) {
	_, c := newCPU()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid class did not panic")
		}
	}()
	c.NewTask("bad", IPLThread, 0, NumClasses)
}

func TestIPLAndClassStrings(t *testing.T) {
	if IPLDevice.String() != "device" || IPL(9).String() != "ipl9" {
		t.Fatal("IPL.String")
	}
	if ClassUser.String() != "user" || Class(99).String() != "class99" {
		t.Fatal("Class.String")
	}
}
