package nic

import (
	"testing"

	"livelock/internal/netstack"
	"livelock/internal/sim"
)

const us = sim.Microsecond

func pkt(id uint64, size int) *netstack.Packet {
	return &netstack.Packet{ID: id, Data: make([]byte, size)}
}

func TestWireSerializationRate(t *testing.T) {
	eng := sim.NewEngine()
	var sink CountingReceiver
	w := NewWire(eng, &sink, EthernetBitRate, 0)
	// Minimum frame: 60 data + FCS+preamble+IFG overhead = 672 bits at
	// 10 Mb/s = 67.2µs → 14,880 pkts/s.
	ser := w.SerializationTime(60)
	if ser != sim.Duration(67200) {
		t.Fatalf("SerializationTime(60) = %v, want 67.2µs", ser)
	}
	pps := float64(sim.Second) / float64(ser)
	if pps < 14800 || pps > 14900 {
		t.Fatalf("max pps = %v, want ~14880", pps)
	}
}

func TestWireDefersWhileBusy(t *testing.T) {
	eng := sim.NewEngine()
	var sink CountingReceiver
	w := NewWire(eng, &sink, EthernetBitRate, 0)
	d1 := w.Transmit(pkt(1, 60))
	d2 := w.Transmit(pkt(2, 60))
	if d2 != d1.Add(w.SerializationTime(60)) {
		t.Fatalf("second frame done at %v, want back-to-back after %v", d2, d1)
	}
	if !w.Busy() {
		t.Fatal("wire should be busy")
	}
	eng.Run(sim.Time(sim.Second))
	if sink.Count != 2 {
		t.Fatalf("delivered %d frames", sink.Count)
	}
	if w.Frames != 2 {
		t.Fatalf("wire counted %d frames", w.Frames)
	}
}

func TestWirePropagationDelay(t *testing.T) {
	eng := sim.NewEngine()
	var sink CountingReceiver
	w := NewWire(eng, &sink, EthernetBitRate, 10*us)
	done := w.Transmit(pkt(1, 60))
	eng.Run(done)
	if sink.Count != 0 {
		t.Fatal("frame delivered before propagation delay")
	}
	eng.Run(done.Add(10 * us))
	if sink.Count != 1 {
		t.Fatal("frame not delivered after propagation delay")
	}
}

func TestRxRingDropsWhenFull(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, "in0", netstack.MAC{}, Config{RxRing: 4, TxRing: 4}, nil)
	for i := uint64(0); i < 6; i++ {
		n.DeliverFrame(pkt(i, 60))
	}
	if n.RxLen() != 4 {
		t.Fatalf("RxLen = %d, want 4", n.RxLen())
	}
	if n.InDiscards.Value() != 2 {
		t.Fatalf("InDiscards = %d, want 2", n.InDiscards.Value())
	}
	if n.InPkts.Value() != 4 {
		t.Fatalf("InPkts = %d, want 4", n.InPkts.Value())
	}
	// FIFO order out.
	for i := uint64(0); i < 4; i++ {
		p := n.TakeRx()
		if p == nil || p.ID != i {
			t.Fatalf("TakeRx = %v, want id %d", p, i)
		}
	}
	if n.TakeRx() != nil {
		t.Fatal("TakeRx from empty ring")
	}
}

func TestRxInterruptAssertion(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, "in0", netstack.MAC{}, DefaultConfig(), nil)
	raises := 0
	n.SetRxInterrupt(func() { raises++ })

	n.DeliverFrame(pkt(1, 60))
	n.DeliverFrame(pkt(2, 60)) // pending: no second assertion
	if raises != 1 {
		t.Fatalf("raises = %d, want 1 (batched)", raises)
	}
	if !n.RxPending() {
		t.Fatal("RxPending should be true")
	}
	n.TakeRx()
	n.RxIntrDone() // one frame still queued → immediate re-assert
	if raises != 2 {
		t.Fatalf("raises = %d, want 2 (re-assert with backlog)", raises)
	}
	n.TakeRx()
	n.RxIntrDone()
	if raises != 2 {
		t.Fatalf("raises = %d after drain, want 2", raises)
	}
	n.DeliverFrame(pkt(3, 60))
	if raises != 3 {
		t.Fatalf("raises = %d, want 3 (new arrival asserts)", raises)
	}
}

func TestRxInterruptEnableFlag(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, "in0", netstack.MAC{}, DefaultConfig(), nil)
	raises := 0
	n.SetRxInterrupt(func() { raises++ })
	n.EnableRxInterrupt(false)
	n.DeliverFrame(pkt(1, 60))
	n.DeliverFrame(pkt(2, 60))
	if raises != 0 {
		t.Fatalf("raises = %d with interrupts disabled", raises)
	}
	if !n.RxInterruptEnabled() {
		// just exercised the getter; flag is false here
	}
	n.EnableRxInterrupt(true)
	if raises != 1 {
		t.Fatalf("raises = %d after enable with backlog, want 1", raises)
	}
}

func TestTxPathAndReclaim(t *testing.T) {
	eng := sim.NewEngine()
	var sink CountingReceiver
	w := NewWire(eng, &sink, EthernetBitRate, 0)
	n := New(eng, "out0", netstack.MAC{}, Config{RxRing: 4, TxRing: 2}, w)
	txIntrs := 0
	n.SetTxInterrupt(func() { txIntrs++ })

	if !n.StartTx(pkt(1, 60)) || !n.StartTx(pkt(2, 60)) {
		t.Fatal("StartTx failed with free descriptors")
	}
	// Ring full: 2 descriptors consumed (1 in flight + 1 queued).
	if n.StartTx(pkt(3, 60)) {
		t.Fatal("StartTx succeeded with no free descriptors")
	}
	if n.TxDescriptorsFree() != 0 {
		t.Fatalf("free = %d, want 0", n.TxDescriptorsFree())
	}
	eng.Run(sim.Time(sim.Second))
	if sink.Count != 2 {
		t.Fatalf("transmitted %d frames, want 2", sink.Count)
	}
	if n.OutPkts.Value() != 2 {
		t.Fatalf("OutPkts = %d, want 2", n.OutPkts.Value())
	}
	// Descriptors still consumed until reclaimed.
	if n.TxDescriptorsFree() != 0 {
		t.Fatalf("free = %d before reclaim, want 0", n.TxDescriptorsFree())
	}
	if txIntrs != 1 {
		t.Fatalf("tx interrupts = %d, want 1 (batched)", txIntrs)
	}
	if n.TxCompletedLen() != 2 {
		t.Fatalf("completed = %d", n.TxCompletedLen())
	}
	if !n.ReclaimTx() {
		t.Fatal("ReclaimTx failed with completions pending")
	}
	if !n.ReclaimTx() {
		t.Fatal("second ReclaimTx failed")
	}
	if n.ReclaimTx() {
		t.Fatal("ReclaimTx succeeded with nothing to reclaim")
	}
	n.TxIntrDone()
	if n.TxDescriptorsFree() != 2 {
		t.Fatalf("free = %d after reclaim, want 2", n.TxDescriptorsFree())
	}
	if !n.StartTx(pkt(4, 60)) {
		t.Fatal("StartTx failed after reclaim")
	}
}

func TestTxStarvationWithoutReclaim(t *testing.T) {
	// The structural cause of transmit starvation (§4.4): without CPU
	// work to reclaim descriptors, transmission stops after TxRing
	// frames even though the wire is idle.
	eng := sim.NewEngine()
	var sink CountingReceiver
	w := NewWire(eng, &sink, EthernetBitRate, 0)
	n := New(eng, "out0", netstack.MAC{}, Config{RxRing: 4, TxRing: 8}, w)
	sent := 0
	for i := 0; i < 100; i++ {
		if n.StartTx(pkt(uint64(i), 60)) {
			sent++
		}
	}
	eng.Run(sim.Time(sim.Second))
	if sent != 8 {
		t.Fatalf("accepted %d frames, want 8 (= TxRing)", sent)
	}
	if sink.Count != 8 {
		t.Fatalf("delivered %d", sink.Count)
	}
	if w.Busy() {
		t.Fatal("wire should be idle (starved)")
	}
}

func TestSinkValidatesFrames(t *testing.T) {
	eng := sim.NewEngine()
	s := NewSink(eng, "dst")
	spec := &netstack.FrameSpec{
		SrcIP: netstack.AddrFrom(10, 0, 0, 2), DstIP: netstack.AddrFrom(10, 0, 1, 9),
		SrcPort: 1, DstPort: 9, Payload: []byte{1, 2, 3, 4}, UDPChecksum: true,
	}
	buf := make([]byte, spec.FrameLen())
	fl, err := netstack.BuildUDPFrame(buf, spec)
	if err != nil {
		t.Fatal(err)
	}
	good := &netstack.Packet{Data: buf[:fl], Born: 0}
	s.DeliverFrame(good)
	if s.Delivered.Value() != 1 || s.Malformed.Value() != 0 {
		t.Fatalf("delivered=%d malformed=%d", s.Delivered.Value(), s.Malformed.Value())
	}
	if s.LastTTL != 64 {
		t.Fatalf("LastTTL = %d", s.LastTTL)
	}
	bad := &netstack.Packet{Data: make([]byte, 60)}
	s.DeliverFrame(bad)
	if s.Malformed.Value() != 1 {
		t.Fatalf("malformed = %d, want 1", s.Malformed.Value())
	}
	if s.Latency.Count() != 1 {
		t.Fatalf("latency samples = %d, want 1", s.Latency.Count())
	}
}

func TestNICDrainAndQuiesced(t *testing.T) {
	eng := sim.NewEngine()
	var sink CountingReceiver
	w := NewWire(eng, &sink, EthernetBitRate, 0)
	n := New(eng, "n", netstack.MAC{}, Config{RxRing: 4, TxRing: 4}, w)
	if !n.Quiesced() {
		t.Fatal("new NIC not quiesced")
	}
	n.DeliverFrame(pkt(1, 60))
	n.StartTx(pkt(2, 60))
	eng.Run(sim.Time(sim.Second)) // tx completes, descriptor unreclaimed
	if n.Quiesced() {
		t.Fatal("NIC with held packets reports quiesced")
	}
	// Drain releases the rx-ring packet; the transmitted frame went to
	// the wire, so only its descriptor count is cleared.
	if got := n.Drain(); got != 1 {
		t.Fatalf("Drain = %d, want 1", got)
	}
	if !n.Quiesced() {
		t.Fatal("NIC not quiesced after drain")
	}
}

func TestNICInvalidConfigPanics(t *testing.T) {
	eng := sim.NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("zero ring size did not panic")
		}
	}()
	New(eng, "n", netstack.MAC{}, Config{RxRing: 0, TxRing: 1}, nil)
}

func TestWireBackToBackProperty(t *testing.T) {
	// Property: for any frame-size sequence, delivery times are strictly
	// increasing and never closer than the serialization time of the
	// later frame (the carrier defers).
	eng := sim.NewEngine()
	var times []sim.Time
	recorder := recorderSink{times: &times, eng: eng}
	w := NewWire(eng, recorder, EthernetBitRate, 0)
	sizes := []int{60, 1514, 60, 600, 60, 1514, 100}
	for _, n := range sizes {
		w.Transmit(pkt(0, n))
	}
	eng.Run(sim.Time(sim.Second))
	if len(times) != len(sizes) {
		t.Fatalf("delivered %d of %d", len(times), len(sizes))
	}
	for i := 1; i < len(times); i++ {
		gap := times[i].Sub(times[i-1])
		if gap < w.SerializationTime(sizes[i]) {
			t.Fatalf("frame %d delivered %v after predecessor, below its serialization %v",
				i, gap, w.SerializationTime(sizes[i]))
		}
	}
}

type recorderSink struct {
	times *[]sim.Time
	eng   *sim.Engine
}

func (r recorderSink) DeliverFrame(p *netstack.Packet) {
	*r.times = append(*r.times, r.eng.Now())
	p.Release()
}

func TestRxRingFIFOUnderChurn(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, "in0", netstack.MAC{}, Config{RxRing: 8, TxRing: 4}, nil)
	next := uint64(0)
	wantNext := uint64(0)
	rng := sim.NewRNG(3)
	for i := 0; i < 10000; i++ {
		if rng.Intn(2) == 0 {
			n.DeliverFrame(pkt(next, 60))
			next++
		} else if p := n.TakeRx(); p != nil {
			// Accepted frames come out in arrival order; dropped ones
			// leave gaps but never reorder.
			if p.ID < wantNext {
				t.Fatalf("reordered: got %d after %d", p.ID, wantNext)
			}
			wantNext = p.ID + 1
		}
	}
	if n.InPkts.Value()+n.InDiscards.Value() != next {
		t.Fatalf("admission accounting: %d+%d != %d",
			n.InPkts.Value(), n.InDiscards.Value(), next)
	}
}

// TestWireTapAccounting pins the counter semantics of the fault tap:
// Frames is transmit-side (what the sender put on the wire), Delivered
// is receive-side (what actually arrived, duplicates included), and at
// any boundary Frames + TapInjected = Delivered + TapDropped + frames
// the tap still holds.
func TestWireTapAccounting(t *testing.T) {
	eng := sim.NewEngine()
	var sink CountingReceiver
	w := NewWire(eng, &sink, EthernetBitRate, 0)
	seen := 0
	w.SetTap(func(p *netstack.Packet) {
		seen++
		switch seen {
		case 1: // drop
			w.DropTapped(p)
		case 2: // duplicate: original plus an injected copy
			dup := &netstack.Packet{ID: p.ID | 1<<62, Data: append([]byte(nil), p.Data...)}
			w.Deliver(p)
			w.DeliverInjected(dup)
		default:
			w.Deliver(p)
		}
	})
	for i := uint64(1); i <= 3; i++ {
		w.Transmit(pkt(i, 60))
	}
	eng.Run(sim.Time(sim.Second))
	if w.Frames != 3 {
		t.Fatalf("Frames = %d, want 3 (tap must not change the transmit count)", w.Frames)
	}
	if w.Delivered != 3 || w.TapDropped != 1 || w.TapInjected != 1 {
		t.Fatalf("Delivered/TapDropped/TapInjected = %d/%d/%d, want 3/1/1",
			w.Delivered, w.TapDropped, w.TapInjected)
	}
	if sink.Count != 3 {
		t.Fatalf("receiver saw %d frames, want 3", sink.Count)
	}
	if w.Frames+w.TapInjected != w.Delivered+w.TapDropped {
		t.Fatalf("tap invariant violated: %d+%d != %d+%d",
			w.Frames, w.TapInjected, w.Delivered, w.TapDropped)
	}
}

// TestWireTapDelayedDelivery checks a tap may hold a frame and deliver
// it from a later event: mid-flight the invariant accounts it as held,
// and it still reaches the receiver exactly once.
func TestWireTapDelayedDelivery(t *testing.T) {
	eng := sim.NewEngine()
	var sink CountingReceiver
	w := NewWire(eng, &sink, EthernetBitRate, 0)
	w.SetTap(func(p *netstack.Packet) {
		eng.After(sim.Millisecond, func() { w.Deliver(p) })
	})
	done := w.Transmit(pkt(1, 60))
	eng.Run(done.Add(100 * us))
	if w.Frames != 1 || w.Delivered != 0 {
		t.Fatalf("mid-flight Frames/Delivered = %d/%d, want 1/0", w.Frames, w.Delivered)
	}
	eng.Run(sim.Time(sim.Second))
	if w.Delivered != 1 || sink.Count != 1 {
		t.Fatalf("Delivered/sink = %d/%d, want 1/1", w.Delivered, sink.Count)
	}
}

// TestTxQueueNoAlloc: the transmit queue reuses one backing array, so
// the StartTx → wire completion → ReclaimTx cycle allocates nothing once
// warm. Popping by reslicing the queue's front would slide it off its
// array and make nearly every later append allocate a fresh one.
func TestTxQueueNoAlloc(t *testing.T) {
	eng := sim.NewEngine()
	var sink CountingReceiver
	w := NewWire(eng, &sink, EthernetBitRate, 0)
	n := New(eng, "out0", netstack.MAC{}, Config{RxRing: 4, TxRing: 4}, w)
	frames := []*netstack.Packet{pkt(1, 60), pkt(2, 60), pkt(3, 60)}
	cycle := func() {
		for _, p := range frames {
			if !n.StartTx(p) {
				t.Fatal("StartTx refused with free descriptors")
			}
		}
		eng.RunFor(sim.Millisecond)
		for n.ReclaimTx() {
		}
		n.TxIntrDone()
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("%.1f allocations per transmit cycle, want 0", allocs)
	}
	if n.TxQueuedLen() != 0 || n.TxDescriptorsFree() != 4 {
		t.Fatalf("queued=%d free=%d after the cycles, want 0 and 4", n.TxQueuedLen(), n.TxDescriptorsFree())
	}
}
