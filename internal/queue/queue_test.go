package queue

import (
	"testing"
	"testing/quick"

	"livelock/internal/netstack"
)

func pkt(id uint64) *netstack.Packet { return &netstack.Packet{ID: id} }

func TestQueueFIFO(t *testing.T) {
	q := New("q", 4, nil)
	for i := uint64(1); i <= 4; i++ {
		if !q.Enqueue(pkt(i)) {
			t.Fatalf("enqueue %d failed", i)
		}
	}
	if !q.Full() {
		t.Fatal("queue should be full")
	}
	for i := uint64(1); i <= 4; i++ {
		p := q.Dequeue()
		if p == nil || p.ID != i {
			t.Fatalf("dequeue = %v, want id %d", p, i)
		}
	}
	if q.Dequeue() != nil {
		t.Fatal("dequeue from empty returned a packet")
	}
	if !q.Empty() {
		t.Fatal("queue should be empty")
	}
}

func TestQueueDropTail(t *testing.T) {
	q := New("q", 2, nil)
	q.Enqueue(pkt(1))
	q.Enqueue(pkt(2))
	if q.Enqueue(pkt(3)) {
		t.Fatal("enqueue into full queue succeeded")
	}
	if q.Drops.Value() != 1 {
		t.Fatalf("Drops = %d, want 1", q.Drops.Value())
	}
	if q.Enqueued.Value() != 2 {
		t.Fatalf("Enqueued = %d, want 2", q.Enqueued.Value())
	}
	// Head is preserved (tail dropped).
	if p := q.Dequeue(); p.ID != 1 {
		t.Fatalf("head = %d, want 1", p.ID)
	}
}

func TestQueueWrapAround(t *testing.T) {
	q := New("q", 3, nil)
	id := uint64(0)
	for round := 0; round < 10; round++ {
		q.Enqueue(pkt(id))
		q.Enqueue(pkt(id + 1))
		a, b := q.Dequeue(), q.Dequeue()
		if a.ID != id || b.ID != id+1 {
			t.Fatalf("round %d: got %d,%d want %d,%d", round, a.ID, b.ID, id, id+1)
		}
		id += 2
	}
}

func TestQueueWatermarkHysteresis(t *testing.T) {
	q := New("q", 8, nil)
	q.SetWatermarks(6, 2)
	highs, lows := 0, 0
	q.OnHigh = func() { highs++ }
	q.OnLow = func() { lows++ }

	for i := 0; i < 8; i++ {
		q.Enqueue(pkt(uint64(i)))
	}
	if highs != 1 {
		t.Fatalf("OnHigh fired %d times while filling, want 1", highs)
	}
	if !q.AboveHigh() {
		t.Fatal("AboveHigh should be true")
	}
	// Drain to 3: still above low watermark → no OnLow.
	for q.Len() > 3 {
		q.Dequeue()
	}
	if lows != 0 {
		t.Fatalf("OnLow fired early (%d)", lows)
	}
	q.Dequeue() // now 2 == low
	if lows != 1 {
		t.Fatalf("OnLow fired %d times, want 1", lows)
	}
	if q.AboveHigh() {
		t.Fatal("AboveHigh should have cleared")
	}
	// Re-fill: OnHigh fires again exactly once at 6.
	for q.Len() < 8 {
		q.Enqueue(pkt(0))
	}
	if highs != 2 {
		t.Fatalf("OnHigh fired %d times total, want 2", highs)
	}
}

func TestQueueWatermarkNoRefireWithinRegime(t *testing.T) {
	q := New("q", 8, nil)
	q.SetWatermarks(4, 1)
	highs := 0
	q.OnHigh = func() { highs++ }
	for i := 0; i < 6; i++ {
		q.Enqueue(pkt(0))
	}
	q.Dequeue() // 5, still above low
	q.Enqueue(pkt(0))
	if highs != 1 {
		t.Fatalf("OnHigh fired %d times, want 1 (no refire above low mark)", highs)
	}
}

// TestQueueSetWatermarksReconcilesHysteresis: reconfiguring watermarks
// on a live queue must reconcile the hysteresis regime with the current
// occupancy. Before the fix, a queue already at/past the new high kept
// q.high == false, so the high crossing that had *already happened* was
// never signalled — and the eventual drain to the low mark fired
// nothing either, leaving feedback listeners out of sync for good.
func TestQueueSetWatermarksReconcilesHysteresis(t *testing.T) {

	// Case 1: occupancy already past the new high → OnHigh fires once
	// at reconfiguration, and the subsequent drain fires OnLow once.
	q := New("q", 16, nil)
	highs, lows := 0, 0
	q.OnHigh = func() { highs++ }
	q.OnLow = func() { lows++ }
	for i := 0; i < 10; i++ {
		q.Enqueue(pkt(uint64(i)))
	}
	q.SetWatermarks(6, 2)
	if highs != 1 {
		t.Fatalf("OnHigh fired %d times on reconfigure past high, want 1", highs)
	}
	if !q.AboveHigh() {
		t.Fatal("queue not in high regime after reconfigure past high")
	}
	for q.Len() > 2 {
		q.Dequeue()
	}
	if lows != 1 {
		t.Fatalf("OnLow fired %d times draining to low, want 1", lows)
	}
	// Refill: the crossing must re-arm normally.
	for q.Len() < 6 {
		q.Enqueue(pkt(0))
	}
	if highs != 2 {
		t.Fatalf("OnHigh fired %d times after refill, want 2", highs)
	}

	// Case 2: in the high regime, new watermarks placed above the
	// occupancy → OnLow fires once at reconfiguration (the queue is at
	// or below the new low), and the next high crossing is not
	// swallowed.
	q2 := New("q2", 16, nil)
	highs2, lows2 := 0, 0
	q2.OnHigh = func() { highs2++ }
	q2.OnLow = func() { lows2++ }
	q2.SetWatermarks(3, 1)
	for i := 0; i < 3; i++ {
		q2.Enqueue(pkt(uint64(i)))
	}
	if highs2 != 1 || !q2.AboveHigh() {
		t.Fatalf("setup: highs=%d AboveHigh=%v", highs2, q2.AboveHigh())
	}
	q2.Dequeue() // occupancy 2, still in high regime (low mark is 1)
	q2.SetWatermarks(8, 4)
	if lows2 != 1 {
		t.Fatalf("OnLow fired %d times on reconfigure above occupancy, want 1", lows2)
	}
	if q2.AboveHigh() {
		t.Fatal("queue still in high regime after reconfigure above occupancy")
	}
	for q2.Len() < 8 {
		q2.Enqueue(pkt(0))
	}
	if highs2 != 2 {
		t.Fatalf("OnHigh fired %d times reaching the new high, want 2 (crossing swallowed)", highs2)
	}

	// Case 3: occupancy inside the new hysteresis band keeps the
	// current regime and fires nothing.
	q3 := New("q3", 16, nil)
	highs3, lows3 := 0, 0
	q3.OnHigh = func() { highs3++ }
	q3.OnLow = func() { lows3++ }
	for i := 0; i < 5; i++ {
		q3.Enqueue(pkt(uint64(i)))
	}
	q3.SetWatermarks(8, 2) // occupancy 5 sits inside (2, 8)
	if highs3 != 0 || lows3 != 0 || q3.AboveHigh() {
		t.Fatalf("in-band reconfigure fired callbacks: highs=%d lows=%d AboveHigh=%v",
			highs3, lows3, q3.AboveHigh())
	}
}

func TestQueueInvalidConfig(t *testing.T) {
	for _, f := range []func(){
		func() { New("q", 0, nil) },
		func() {
			q := New("q", 4, nil)
			q.SetWatermarks(2, 2)
		},
		func() {
			q := New("q", 4, nil)
			q.SetWatermarks(5, 1)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid configuration did not panic")
				}
			}()
			f()
		}()
	}
}

func TestQueueFlush(t *testing.T) {
	q := New("q", 4, nil)
	q.Enqueue(pkt(1))
	q.Enqueue(pkt(2))
	if n := q.Flush(); n != 2 {
		t.Fatalf("Flush = %d, want 2", n)
	}
	if !q.Empty() {
		t.Fatal("queue not empty after flush")
	}
}

// TestQueueFlushSkipsHysteresis: teardown must not fire the OnLow
// re-enable callback — a flush is not the feedback mechanism draining
// the queue, and poking feedback gates on a quiescing engine schedules
// spurious re-enable work.
func TestQueueFlushSkipsHysteresis(t *testing.T) {
	q := New("q", 8, nil)
	q.SetWatermarks(4, 1)
	highs, lows := 0, 0
	q.OnHigh = func() { highs++ }
	q.OnLow = func() { lows++ }
	for i := 0; i < 6; i++ {
		q.Enqueue(pkt(uint64(i)))
	}
	if highs != 1 || !q.AboveHigh() {
		t.Fatalf("OnHigh fired %d times (AboveHigh=%v), want 1/true", highs, q.AboveHigh())
	}
	if n := q.Flush(); n != 6 {
		t.Fatalf("Flush = %d, want 6", n)
	}
	if lows != 0 {
		t.Fatalf("OnLow fired %d times during Flush, want 0", lows)
	}
	if q.AboveHigh() {
		t.Fatal("hysteresis state not cleared by Flush")
	}
	// The hysteresis must be re-armed: a fresh fill fires OnHigh again.
	for i := 0; i < 4; i++ {
		q.Enqueue(pkt(uint64(i)))
	}
	if highs != 2 {
		t.Fatalf("OnHigh fired %d times after re-fill, want 2", highs)
	}
}

func TestQueueConservationProperty(t *testing.T) {
	// Property: enqueued = dequeued + dropped-at-enqueue + still-queued,
	// and FIFO order is preserved, for any op sequence.
	check := func(ops []bool, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		q := New("q", capacity, nil)
		nextID, wantNext := uint64(0), uint64(0)
		dequeued := 0
		for _, enq := range ops {
			if enq {
				ok := q.Enqueue(pkt(nextID))
				if ok {
					nextID++
				} else {
					// Drop-tail: the dropped packet never gets an ID slot;
					// conservation counts it via Drops.
					nextID++
					wantNextAdjust(q, &wantNext)
				}
			} else {
				p := q.Dequeue()
				if p != nil {
					dequeued++
					// FIFO: IDs of delivered packets must be increasing.
					if p.ID < wantNext {
						return false
					}
					wantNext = p.ID + 1
				}
			}
		}
		total := q.Enqueued.Value() + q.Drops.Value()
		return total == nextID &&
			int(q.Enqueued.Value()) == dequeued+q.Len()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// wantNextAdjust is a no-op placeholder documenting that a dropped packet
// consumes an ID but never appears at the head.
func wantNextAdjust(*Queue, *uint64) {}
