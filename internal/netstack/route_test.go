package netstack

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestRoutingTableBasic(t *testing.T) {
	rt := NewRoutingTable()
	must := func(r Route) {
		t.Helper()
		if err := rt.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	must(Route{Prefix: AddrFrom(0, 0, 0, 0), Bits: 0, NextHop: AddrFrom(10, 0, 0, 254), IfIndex: 0})
	must(Route{Prefix: AddrFrom(10, 0, 1, 0), Bits: 24, IfIndex: 1})
	must(Route{Prefix: AddrFrom(10, 0, 1, 128), Bits: 25, NextHop: AddrFrom(10, 0, 1, 200), IfIndex: 2})

	if rt.Len() != 3 {
		t.Fatalf("Len = %d, want 3", rt.Len())
	}

	cases := []struct {
		dst    Addr
		wantIf int
	}{
		{AddrFrom(10, 0, 1, 9), 1},    // /24 match
		{AddrFrom(10, 0, 1, 200), 2},  // /25 beats /24
		{AddrFrom(192, 168, 5, 5), 0}, // default route
	}
	for _, c := range cases {
		r, err := rt.Lookup(c.dst)
		if err != nil {
			t.Fatalf("Lookup(%v): %v", c.dst, err)
		}
		if r.IfIndex != c.wantIf {
			t.Errorf("Lookup(%v) → if %d, want %d", c.dst, r.IfIndex, c.wantIf)
		}
	}
}

func TestRoutingTableNoRoute(t *testing.T) {
	rt := NewRoutingTable()
	if err := rt.Insert(Route{Prefix: AddrFrom(10, 0, 0, 0), Bits: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Lookup(AddrFrom(11, 0, 0, 1)); err != ErrNoRoute {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
}

func TestRoutingTableBadPrefix(t *testing.T) {
	rt := NewRoutingTable()
	if err := rt.Insert(Route{Bits: 33}); err != ErrBadPrefix {
		t.Fatalf("err = %v, want ErrBadPrefix", err)
	}
	if err := rt.Insert(Route{Bits: -1}); err != ErrBadPrefix {
		t.Fatalf("err = %v, want ErrBadPrefix", err)
	}
}

func TestRoutingTableReplace(t *testing.T) {
	rt := NewRoutingTable()
	rt.Insert(Route{Prefix: AddrFrom(10, 0, 0, 0), Bits: 8, IfIndex: 1})
	rt.Insert(Route{Prefix: AddrFrom(10, 0, 0, 0), Bits: 8, IfIndex: 7})
	if rt.Len() != 1 {
		t.Fatalf("Len = %d after replace, want 1", rt.Len())
	}
	r, _ := rt.Lookup(AddrFrom(10, 1, 2, 3))
	if r.IfIndex != 7 {
		t.Fatalf("IfIndex = %d, want 7 (replaced)", r.IfIndex)
	}
}

func TestRoutingTableHostRoute(t *testing.T) {
	rt := NewRoutingTable()
	rt.Insert(Route{Prefix: AddrFrom(10, 0, 1, 9), Bits: 32, IfIndex: 3})
	if r, err := rt.Lookup(AddrFrom(10, 0, 1, 9)); err != nil || r.IfIndex != 3 {
		t.Fatalf("host route lookup: %v %v", r, err)
	}
	if _, err := rt.Lookup(AddrFrom(10, 0, 1, 10)); err != ErrNoRoute {
		t.Fatalf("adjacent host matched /32: %v", err)
	}
}

// lpmReference is a linear-scan longest-prefix-match used to verify the
// trie.
func lpmReference(routes []Route, dst Addr) (Route, bool) {
	best := -1
	var bestRoute Route
	for _, r := range routes {
		if r.Bits < 0 || r.Bits > 32 {
			continue
		}
		if MatchPrefix(r.Prefix, r.Bits, dst) && r.Bits > best {
			best = r.Bits
			bestRoute = r
		}
	}
	return bestRoute, best >= 0
}

func TestRoutingTableMatchesLinearReference(t *testing.T) {
	check := func(seeds []uint32, bitsRaw []uint8, probes []uint32) bool {
		rt := NewRoutingTable()
		var routes []Route
		for i, s := range seeds {
			bits := 0
			if i < len(bitsRaw) {
				bits = int(bitsRaw[i]) % 33
			}
			r := Route{Prefix: AddrFromUint32(s & maskBits(bits)), Bits: bits, IfIndex: i}
			// Skip duplicate (prefix,bits): the trie replaces, the
			// reference must mirror that.
			dup := false
			for j, prev := range routes {
				if prev.Bits == r.Bits && prev.Prefix == r.Prefix {
					routes[j] = r
					dup = true
					break
				}
			}
			if !dup {
				routes = append(routes, r)
			}
			if err := rt.Insert(r); err != nil {
				return false
			}
		}
		for _, p := range probes {
			dst := AddrFromUint32(p)
			want, wantOK := lpmReference(routes, dst)
			got, err := rt.Lookup(dst)
			if wantOK != (err == nil) {
				return false
			}
			if wantOK && (got.Bits != want.Bits || got.IfIndex != want.IfIndex) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzRoutingTable inserts a fuzzed sequence of routes, replaces,
// default (/0) and host (/32) routes included, and after every insert
// checks Len and the lookup of each stored prefix's first and last
// address and both neighbours against lpmReference. Each 5-byte record
// is a route: a big-endian prefix and a length byte (mod 33).
func FuzzRoutingTable(f *testing.F) {
	route := func(a, b, c, d, bits byte) []byte { return []byte{a, b, c, d, bits} }
	f.Add(bytes.Join([][]byte{
		route(0, 0, 0, 0, 0), route(10, 0, 1, 0, 24), route(10, 0, 1, 128, 25),
		route(10, 0, 1, 9, 32), route(10, 0, 1, 0, 24), route(255, 255, 255, 255, 32),
	}, nil))
	f.Add(bytes.Join([][]byte{
		route(10, 0, 1, 9, 32), route(10, 0, 1, 8, 31), route(10, 0, 0, 0, 8),
		route(0x80, 0, 0, 0, 1), route(0, 0, 0, 0, 1), route(1, 2, 3, 4, 0),
	}, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		rt := NewRoutingTable()
		var routes []Route
		for i := 0; i+5 <= len(data) && i < 5*32; i += 5 {
			bits := int(data[i+4]) % 33
			key := binary.BigEndian.Uint32(data[i:]) & maskBits(bits)
			r := Route{Prefix: AddrFromUint32(key), Bits: bits, NextHop: AddrFromUint32(uint32(i)), IfIndex: i / 5}
			if err := rt.Insert(r); err != nil {
				t.Fatal(err)
			}
			replaced := false
			for j, prev := range routes {
				if prev.Bits == r.Bits && prev.Prefix == r.Prefix {
					routes[j], replaced = r, true
				}
			}
			if !replaced {
				routes = append(routes, r)
			}
			if rt.Len() != len(routes) {
				t.Fatalf("Len = %d after %d distinct prefixes", rt.Len(), len(routes))
			}
			for _, stored := range routes {
				first := stored.Prefix.Uint32()
				last := first | ^maskBits(stored.Bits)
				for _, p := range []uint32{first, last, first - 1, last + 1} {
					dst := AddrFromUint32(p)
					want, wantOK := lpmReference(routes, dst)
					got, err := rt.Lookup(dst)
					if wantOK != (err == nil) || got != want {
						t.Fatalf("Lookup(%v) = %v, %v; want %v (found %v)", dst, got, err, want, wantOK)
					}
				}
			}
		}
	})
}

func TestARPTable(t *testing.T) {
	arp := NewARPTable()
	ip := AddrFrom(10, 0, 1, 9)
	if _, ok := arp.Lookup(ip); ok {
		t.Fatal("lookup in empty table succeeded")
	}
	if arp.Misses != 1 {
		t.Fatalf("Misses = %d, want 1", arp.Misses)
	}
	mac := arp.InsertPhantom(ip)
	got, ok := arp.Lookup(ip)
	if !ok || got != mac {
		t.Fatalf("Lookup = %v %v", got, ok)
	}
	if mac[0] != 0x02 {
		t.Fatalf("phantom MAC %v not locally administered", mac)
	}
	arp.Insert(ip, MAC{1, 2, 3, 4, 5, 6})
	got, _ = arp.Lookup(ip)
	if got != (MAC{1, 2, 3, 4, 5, 6}) {
		t.Fatal("Insert did not replace")
	}
	if arp.Len() != 1 {
		t.Fatalf("Len = %d", arp.Len())
	}
}

func TestForwarder(t *testing.T) {
	rt := NewRoutingTable()
	dst := AddrFrom(10, 0, 1, 9)
	rt.Insert(Route{Prefix: AddrFrom(10, 0, 1, 0), Bits: 24, IfIndex: 1})
	arp := NewARPTable()
	phantomMAC := arp.InsertPhantom(dst)
	fwd := NewForwarder(rt, arp)
	outMAC := MAC{0xaa, 0, 0, 0, 0, 0xbb}
	fwd.IfMAC[1] = outMAC

	spec := &FrameSpec{
		SrcIP: AddrFrom(10, 0, 0, 2), DstIP: dst,
		SrcPort: 1, DstPort: 9, Payload: []byte{1, 2, 3, 4}, UDPChecksum: true,
	}
	frame := make([]byte, spec.FrameLen())
	n, err := BuildUDPFrame(frame, spec)
	if err != nil {
		t.Fatal(err)
	}
	frame = frame[:n]

	ifidx, err := fwd.Forward(frame)
	if err != nil {
		t.Fatal(err)
	}
	if ifidx != 1 {
		t.Fatalf("output if = %d, want 1", ifidx)
	}
	eth, ip, _, _, err := ParseUDPFrame(frame)
	if err != nil {
		t.Fatalf("forwarded frame does not parse: %v", err)
	}
	if eth.Dst != phantomMAC || eth.Src != outMAC {
		t.Fatalf("link header not rewritten: %+v", eth)
	}
	if ip.TTL != 63 {
		t.Fatalf("TTL = %d, want 63", ip.TTL)
	}
}

func TestForwarderErrors(t *testing.T) {
	fwd := NewForwarder(NewRoutingTable(), NewARPTable())
	// Non-IPv4 ethertype.
	arpFrame := make([]byte, EthMinFrame)
	(&EthHeader{Type: EtherTypeARP}).Marshal(arpFrame)
	if _, err := fwd.Forward(arpFrame); err != ErrNotForUs {
		t.Fatalf("ARP frame: err = %v, want ErrNotForUs", err)
	}
	// No route.
	spec := &FrameSpec{SrcIP: AddrFrom(1, 1, 1, 1), DstIP: AddrFrom(2, 2, 2, 2),
		Payload: []byte{0}}
	frame := make([]byte, spec.FrameLen())
	n, _ := BuildUDPFrame(frame, spec)
	if _, err := fwd.Forward(frame[:n]); err != ErrNoRoute {
		t.Fatalf("no route: err = %v, want ErrNoRoute", err)
	}
	// Truncated IPv4 header.
	if _, err := fwd.Forward(frame[:EthHeaderLen+10]); err == nil {
		t.Fatal("truncated frame forwarded")
	}
	// TTL expiry.
	fwd.Routes.Insert(Route{Bits: 0, IfIndex: 0})
	spec.TTL = 1
	n, _ = BuildUDPFrame(frame, spec)
	if _, err := fwd.Forward(frame[:n]); err != ErrTTLExceeded {
		t.Fatalf("ttl: err = %v, want ErrTTLExceeded", err)
	}
	// ARP miss: a route exists, so ErrNoRoute comes from the next hop.
	spec.TTL = 5
	n, _ = BuildUDPFrame(frame, spec)
	if _, err := fwd.Forward(frame[:n]); err != ErrNoRoute {
		t.Fatalf("arp miss: err = %v, want ErrNoRoute", err)
	}
}

func TestPool(t *testing.T) {
	p := NewPool(2, 128)
	a := p.Get(100)
	b := p.Get(128)
	if a == nil || b == nil {
		t.Fatal("allocation failed with free buffers")
	}
	if len(a.Data) != 100 {
		t.Fatalf("len = %d, want 100", len(a.Data))
	}
	if p.Get(10) != nil {
		t.Fatal("allocation succeeded from exhausted pool")
	}
	if p.Fails != 1 {
		t.Fatalf("Fails = %d, want 1", p.Fails)
	}
	if p.Get(1000) != nil {
		t.Fatal("oversized allocation succeeded")
	}
	if p.Oversize != 1 {
		t.Fatalf("Oversize = %d, want 1", p.Oversize)
	}
	if p.Fails != 1 {
		t.Fatalf("Fails = %d after oversize request, want 1 (oversize must not count as exhaustion)", p.Fails)
	}
	a.Release()
	if p.Available() != 1 {
		t.Fatalf("Available = %d, want 1", p.Available())
	}
	if c := p.Get(5); c == nil {
		t.Fatal("allocation failed after release")
	}
	if p.Total() != 2 {
		t.Fatalf("Total = %d", p.Total())
	}
}
