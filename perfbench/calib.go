package main

import (
	"container/heap"
	"runtime"
	"time"
)

// The host's effective CPU speed is not constant. On a shared virtual
// machine it moves by 10-30% within seconds and by up to 1.75x over
// minutes, as the neighbours' load takes shares of the physical cores,
// and CPU time moves with it. So the benchmark reports every host time
// at a reference speed: it runs a fixed reference computation in short
// slices interleaved with the measured work, and a time t measured
// between slices that took s on average reads t * calibNominal / s, the
// time t would have taken on a host where one slice takes calibNominal.
// The reference is the benchmark's own code, so a change to the
// simulator moves the scaled times exactly as much as the raw ones; the
// raw times are printed in the notes.
//
// The reference is a miniature discrete-event loop, the simulator's own
// shape: a binary heap of 64 pending events (container/heap, so every
// comparison and swap is an interface call), each popped event running
// one of 16 handlers through a function value and rescheduling itself
// at a time its handler computed. On a 2-VCPU Xeon virtual machine,
// alternating 100 windows of fwd-polled with one slice for 20 s, the
// log of the windows' time over quarter-second stretches had a standard
// deviation of 0.16-0.19, its regression slope on the log of the
// slices' time was 0.93-1.01 and the log of their ratio varied by
// 0.037-0.062. Other references tracked the host less well: integer
// mixing in a 64 KB table plus a sort (slope 1.4-1.7, ratio 0.084-0.107),
// a sort alone (slope 1.6), event heaps of 512 or 4,096 events (ratio
// 0.09-0.15), a pointer chase through 8 MB (slope 0.1-0.3). The loop's
// state is static, so it is outside the collector's heap, and it
// allocates nothing: the measured work's garbage collections are the
// same with and without it.
const (
	calibSteps = 3500 // events per slice
	// calibWarmSteps events run untimed before each slice, to refill
	// the caches and branch predictors the measured work evicted, so
	// that how much of them that work uses does not move the slice.
	calibWarmSteps = 500
	// calibEvery is how many timed windows run between two slices.
	calibEvery = 100
	// calibRadius is how many trial completions on either side of a
	// figure-sweep trial supply the slices it is scaled by.
	calibRadius = 4
	// calibNominal is the thread CPU time of one slice at the reference
	// speed, about a typical slice on a 2-VCPU Intel Xeon (Emerald
	// Rapids) virtual machine.
	calibNominal = 250 * time.Microsecond
)

type calibEvent struct {
	at      uint64
	handler int
}

// calibQueue is a heap.Interface over pending events, earliest first.
type calibQueue []calibEvent

func (q calibQueue) Len() int           { return len(q) }
func (q calibQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q calibQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }

// Push and Pop complete heap.Interface; the loop only calls heap.Fix.
func (q *calibQueue) Push(x any) { *q = append(*q, x.(calibEvent)) }
func (q *calibQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

var (
	calibHandlers [16]func(uint64) uint64
	calibEvents   [64]calibEvent
	calibPending  = calibQueue(calibEvents[:])
)

func init() {
	for i := range calibHandlers {
		k, m := uint64(2*i+1), uint64(i%7)
		calibHandlers[i] = func(x uint64) uint64 {
			if x&k != 0 {
				return x*k + 3 + m
			}
			return x ^ x>>(k&31)
		}
	}
	for i := range calibEvents {
		calibEvents[i] = calibEvent{uint64(i * 7919), i % len(calibHandlers)}
	}
	heap.Init(&calibPending)
}

// calibrate runs one slice of the reference computation, after its
// warm-up, and returns the slice's thread CPU time in ns. The goroutine is wired to its thread meanwhile,
// so the thread clock sees exactly the slice, also while other
// goroutines run on other processors. It must not run concurrently with
// itself.
func calibrate() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	calibRun(calibWarmSteps)
	t0 := threadCPU()
	calibRun(calibSteps)
	return float64(threadCPU() - t0)
}

// calibRun runs n events of the reference loop.
func calibRun(n int) {
	for i := 0; i < n; i++ {
		e := calibPending[0]
		h := calibHandlers[e.handler](e.at)
		calibPending[0] = calibEvent{e.at + 1 + h%1000, int(h>>40) % len(calibHandlers)}
		heap.Fix(&calibPending, 0)
	}
}

// speed is the factor that takes a time measured beside reference
// slices that took s ns on average to the reference speed.
func speed(s float64) float64 { return float64(calibNominal) / s }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
