// Package trace provides a bounded, allocation-free event tracer for
// packet lifecycles: each record is (simulated time, typed stage, drop
// reason, packet id). It hears the kernel's one per-packet observation
// call — every stage a packet reaches, every drop with its reason,
// every delivery — the same call the cycle-attribution profiler
// consumes, so a short traced run shows exactly where a given packet
// spent time or died, and the trace and the profile cannot disagree
// about it.
//
// Records are typed (prov.Stage / prov.DropReason) rather than
// free-form strings: emission allocates nothing, and the stage
// vocabulary is shared with the drop counters and the provenance
// profiler. Record.String renders the same legacy texts the
// string-based tracer produced.
//
// The tracer retains only the most recent capacity records: with the
// ring full, each new record overwrites the oldest, and Total still
// counts every record ever emitted. A run that needs its complete
// stream sizes the ring to hold it and checks Total against the
// records retained.
package trace

import (
	"fmt"
	"io"

	"livelock/internal/prov"
	"livelock/internal/sim"
)

// Record is one trace event.
type Record struct {
	At    sim.Time
	Pkt   uint64
	Stage prov.Stage
	// Reason is non-None exactly when the record marks a drop; Stage is
	// then Reason.Stage(), never chosen independently.
	Reason prov.DropReason
}

// Text returns the record's event text (the stage's legacy string).
func (r Record) Text() string { return r.Stage.String() }

// String formats the record.
func (r Record) String() string {
	return fmt.Sprintf("%12v  pkt#%-8d %s", r.At, r.Pkt, r.Stage)
}

// Tracer is a fixed-capacity ring of records: the most recent capacity
// events are retained.
type Tracer struct {
	buf   []Record
	next  int
	total uint64
}

// New returns a tracer retaining the last capacity records.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		panic("trace: non-positive capacity")
	}
	return &Tracer{buf: make([]Record, 0, capacity)}
}

// Emit records that packet pkt reached stage at instant at, dropped for
// reason when reason is not ReasonNone (stage is then the reason's
// canonical drop stage). It is allocation-free.
func (t *Tracer) Emit(at sim.Time, stage prov.Stage, reason prov.DropReason, pkt uint64) {
	r := Record{At: at, Pkt: pkt, Stage: stage, Reason: reason}
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, r)
	} else {
		t.buf[t.next] = r
		t.next = (t.next + 1) % cap(t.buf)
	}
	t.total++
}

// Total returns the number of events emitted (including evicted ones).
func (t *Tracer) Total() uint64 { return t.total }

// Records returns the retained records, oldest first.
func (t *Tracer) Records() []Record {
	if len(t.buf) < cap(t.buf) {
		out := make([]Record, len(t.buf))
		copy(out, t.buf)
		return out
	}
	out := make([]Record, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// Filter returns retained records for one packet id, oldest first.
func (t *Tracer) Filter(pkt uint64) []Record {
	var out []Record
	for _, r := range t.Records() {
		if r.Pkt == pkt {
			out = append(out, r)
		}
	}
	return out
}

// WriteTo dumps the retained records; it implements io.WriterTo.
func (t *Tracer) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for _, r := range t.Records() {
		m, err := fmt.Fprintln(w, r)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
