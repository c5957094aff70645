// Package queue implements the bounded drop-tail packet FIFOs that sit
// between processing stages in both kernels (ipintrq, output ifqueues,
// the screend input queue), plus the high/low watermark signalling used
// by the modified kernel's queue-state feedback mechanism (§6.6.1 of the
// paper).
package queue

import (
	"livelock/internal/netstack"
	"livelock/internal/prov"
	"livelock/internal/sim"
	"livelock/internal/stats"
)

// Queue is a bounded FIFO of packets with drop-tail overflow behaviour
// and optional watermark callbacks.
//
// Watermark semantics follow the paper: when occupancy reaches or exceeds
// the high watermark, OnHigh fires (once, until re-armed by falling to
// the low watermark); when occupancy falls to or below the low watermark,
// OnLow fires (once, until re-armed by reaching the high watermark).
// This hysteresis is what the feedback mechanism uses to inhibit and
// re-enable input processing.
type Queue struct {
	name  string
	limit int
	buf   []*netstack.Packet
	head  int
	count int

	// Watermarks; zero values disable the callbacks.
	highMark int
	lowMark  int
	high     bool // currently in the "above high watermark" regime
	OnHigh   func()
	OnLow    func()

	// Reason is the canonical drop classification for packets this queue
	// rejects (e.g. ReasonIPIntrQFull for ipintrq). Callers that observe
	// an Enqueue failure report the drop under this reason, so the trace
	// stream, drop counters, and provenance table all agree on which
	// queue killed the packet. Zero (ReasonNone) for harness queues that
	// never feed the provenance layer.
	Reason prov.DropReason

	// Drops counts packets rejected because the queue was full.
	Drops *stats.Counter
	// Enqueued counts successful enqueues.
	Enqueued *stats.Counter
	// Occupancy tracks the time-weighted queue length.
	Occupancy *stats.TimeWeighted

	clock func() sim.Time
}

// New returns a queue with the given capacity. clock supplies the
// current simulated time for occupancy statistics; it must be non-nil.
func New(name string, limit int, clock func() sim.Time) *Queue {
	if limit <= 0 {
		panic("queue: non-positive limit")
	}
	if clock == nil {
		panic("queue: nil clock")
	}
	return &Queue{
		name:      name,
		limit:     limit,
		buf:       make([]*netstack.Packet, limit),
		Drops:     stats.NewCounter(name + ".drops"),
		Enqueued:  stats.NewCounter(name + ".enq"),
		Occupancy: stats.NewTimeWeighted(clock(), 0),
		clock:     clock,
	}
}

// SetWatermarks configures hysteresis thresholds. high must be > low and
// <= capacity; low may be 0.
//
// If the queue is live, the hysteresis regime is reconciled with the
// current occupancy under the new thresholds: occupancy at or above the
// new high enters the high regime (firing OnHigh), occupancy at or
// below the new low leaves it (firing OnLow). Without this a stale
// regime flag would swallow the next genuine crossing — e.g. a queue
// already past the new high would never fire OnHigh, leaving feedback
// listeners convinced the queue is uncongested. Occupancy inside the
// new hysteresis band keeps the current regime, exactly as an
// enqueue/dequeue path through the band would.
func (q *Queue) SetWatermarks(high, low int) {
	if high <= low || high > q.limit || low < 0 {
		panic("queue: invalid watermarks")
	}
	q.highMark, q.lowMark = high, low
	if !q.high && q.count >= high {
		q.high = true
		if q.OnHigh != nil {
			q.OnHigh()
		}
	} else if q.high && q.count <= low {
		q.high = false
		if q.OnLow != nil {
			q.OnLow()
		}
	}
}

// Name returns the queue's name.
func (q *Queue) Name() string { return q.name }

// Len returns the current occupancy.
func (q *Queue) Len() int { return q.count }

// Cap returns the capacity.
func (q *Queue) Cap() int { return q.limit }

// Full reports whether the queue is at capacity.
func (q *Queue) Full() bool { return q.count == q.limit }

// Empty reports whether the queue holds no packets.
func (q *Queue) Empty() bool { return q.count == 0 }

// Enqueue appends p, returning false (and counting a drop) if the queue
// is full. The caller is responsible for releasing dropped packets.
func (q *Queue) Enqueue(p *netstack.Packet) bool {
	if q.count == q.limit {
		q.Drops.Inc()
		return false
	}
	q.buf[(q.head+q.count)%q.limit] = p
	q.count++
	q.Enqueued.Inc()
	q.Occupancy.Set(q.clock(), float64(q.count))
	if q.highMark > 0 && !q.high && q.count >= q.highMark {
		q.high = true
		if q.OnHigh != nil {
			q.OnHigh()
		}
	}
	return true
}

// Peek returns the oldest packet without removing it, or nil if empty.
func (q *Queue) Peek() *netstack.Packet {
	if q.count == 0 {
		return nil
	}
	return q.buf[q.head]
}

// Dequeue removes and returns the oldest packet, or nil if empty.
func (q *Queue) Dequeue() *netstack.Packet {
	if q.count == 0 {
		return nil
	}
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % q.limit
	q.count--
	q.Occupancy.Set(q.clock(), float64(q.count))
	if q.highMark > 0 && q.high && q.count <= q.lowMark {
		q.high = false
		if q.OnLow != nil {
			q.OnLow()
		}
	}
	return p
}

// AboveHigh reports whether the queue is in the above-high-watermark
// regime (i.e. OnHigh has fired and OnLow has not yet).
func (q *Queue) AboveHigh() bool { return q.high }

// Each calls fn for every queued packet in FIFO order, without removing
// any. Exploration harnesses use this to fingerprint queue contents; fn
// must not mutate the queue.
func (q *Queue) Each(fn func(*netstack.Packet)) {
	for i := 0; i < q.count; i++ {
		fn(q.buf[(q.head+i)%q.limit])
	}
}

// Flush releases all queued packets and returns how many were
// discarded. Used at teardown: unlike Dequeue it never fires the OnLow
// watermark callback, which would otherwise poke feedback gates and
// schedule input re-enable work on a quiescing engine. The hysteresis
// state is cleared silently.
func (q *Queue) Flush() int {
	n := q.count
	for i := 0; i < n; i++ {
		p := q.buf[q.head]
		q.buf[q.head] = nil
		q.head = (q.head + 1) % q.limit
		p.Release()
	}
	q.count = 0
	q.high = false
	q.Occupancy.Set(q.clock(), 0)
	return n
}
