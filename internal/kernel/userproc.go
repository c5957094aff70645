package kernel

import (
	"livelock/internal/cpu"
	"livelock/internal/prov"
	"livelock/internal/sim"
)

// userProc is the compute-bound user process of §7: it spins forever at
// the lowest scheduling priority, and the fraction of wall-clock time it
// manages to consume measures how much CPU the kernel leaves to
// user-level work under input load. Work is posted in short slices so
// the process remains preemptible at the granularity a real scheduler
// quantum would provide.
type userProc struct {
	r    *Router
	task *cpu.Task
	// next is spin bound once: the spinner posts a slice every 100 µs
	// for the whole run.
	next func()
}

// userSlice is the spin-slice length; small enough that measurement
// granularity error is negligible over the multi-second trials.
const userSlice = 100 * sim.Microsecond

func newUserProc(r *Router) *userProc {
	u := &userProc{r: r}
	u.task = r.CPU.NewTask("spinner", cpu.IPLThread, 1, cpu.ClassUser)
	u.task.SetCenter(prov.CenterUserProc)
	u.next = u.spin
	u.spin()
	return u
}

func (u *userProc) spin() {
	u.task.Post(userSlice, u.next)
}
