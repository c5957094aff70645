// Package b is outside the Post rule's package set: posting closures
// and method values here is not reported.
package b

import (
	"livelock/internal/cpu"
	"livelock/internal/sim"
)

type owner struct {
	task *cpu.Task
	n    int
}

func (o *owner) step() {}

func post(o *owner, cost sim.Duration) {
	o.task.Post(cost, func() { o.n++ })
	o.task.Post(cost, o.step)
}
