package netstack

import "testing"

func TestFlowCacheBasics(t *testing.T) {
	c := NewFlowCache(2)
	a, b, d := AddrFrom(1, 1, 1, 1), AddrFrom(2, 2, 2, 2), AddrFrom(3, 3, 3, 3)
	if _, ok := c.Lookup(a); ok {
		t.Fatal("hit in empty cache")
	}
	c.Insert(a, FlowEntry{IfIndex: 1})
	c.Insert(b, FlowEntry{IfIndex: 2})
	if e, ok := c.Lookup(a); !ok || e.IfIndex != 1 {
		t.Fatalf("lookup a: %v %v", e, ok)
	}
	// Inserting a third evicts the oldest (a).
	c.Insert(d, FlowEntry{IfIndex: 3})
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	if _, ok := c.Lookup(a); ok {
		t.Fatal("oldest entry not evicted")
	}
	if _, ok := c.Lookup(d); !ok {
		t.Fatal("new entry missing")
	}
	if c.Hits != 2 || c.Misses != 2 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestFlowCacheReinsertDoesNotDuplicate(t *testing.T) {
	c := NewFlowCache(2)
	a := AddrFrom(1, 1, 1, 1)
	c.Insert(a, FlowEntry{IfIndex: 1})
	c.Insert(a, FlowEntry{IfIndex: 9}) // update in place
	if e, _ := c.Lookup(a); e.IfIndex != 9 {
		t.Fatalf("entry not updated: %v", e)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestFlowCacheZeroCapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity accepted")
		}
	}()
	NewFlowCache(0)
}

func TestForwarderUsesCache(t *testing.T) {
	rt := NewRoutingTable()
	dst := AddrFrom(10, 0, 1, 9)
	rt.Insert(Route{Prefix: AddrFrom(10, 0, 1, 0), Bits: 24, IfIndex: 1})
	arp := NewARPTable()
	arp.InsertPhantom(dst)
	fwd := NewForwarder(rt, arp)
	fwd.IfMAC[1] = MAC{0xaa, 0, 0, 0, 0, 0xbb}
	fwd.Cache = NewFlowCache(16)

	build := func() []byte {
		spec := &FrameSpec{SrcIP: AddrFrom(10, 0, 0, 2), DstIP: dst,
			SrcPort: 1, DstPort: 9, Payload: []byte{1, 2, 3, 4}, UDPChecksum: true}
		f := make([]byte, spec.FrameLen())
		n, _ := BuildUDPFrame(f, spec)
		return f[:n]
	}
	for i := 0; i < 5; i++ {
		frame := build()
		ifIdx, err := fwd.Forward(frame)
		if err != nil || ifIdx != 1 {
			t.Fatalf("forward %d: %v %v", i, ifIdx, err)
		}
		// Cached and slow paths must produce identical frames.
		if _, _, _, _, perr := ParseUDPFrame(frame); perr != nil {
			t.Fatalf("frame %d invalid after forward: %v", i, perr)
		}
	}
	if fwd.Cache.Hits != 4 || fwd.Cache.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 4/1", fwd.Cache.Hits, fwd.Cache.Misses)
	}
}
