package netstack

import "errors"

// Forwarder implements the IP forwarding decision: parse the Ethernet and
// IP headers, decrement TTL with incremental checksum update, look up the
// route, resolve the next hop with ARP, and rewrite the link-layer
// header. Both kernels call this same code; only *when* the CPU runs it
// differs, which is the point of the paper.
type Forwarder struct {
	Routes *RoutingTable
	ARP    *ARPTable
	// IfMAC maps interface index to that interface's hardware address,
	// used as the source MAC of forwarded frames.
	IfMAC map[int]MAC
	// Cache, if non-nil, short-circuits route+ARP lookup per
	// destination (§5.4's fast path). Populated on slow-path success.
	Cache *FlowCache
}

// NewForwarder returns a forwarder over the given tables.
func NewForwarder(routes *RoutingTable, arp *ARPTable) *Forwarder {
	return &Forwarder{Routes: routes, ARP: arp, IfMAC: make(map[int]MAC)}
}

// ErrNotForUs is returned for frames the IP layer does not forward
// (non-IPv4 ethertypes such as ARP).
var ErrNotForUs = errors.New("netstack: frame not forwardable")

// Forward rewrites frame in place for transmission and returns the output
// interface index. On error the frame must be dropped; the error names
// the outcome (ErrNotForUs, ErrTTLExceeded, ErrNoRoute for a missing
// route or ARP entry, or a header parse error), which the caller
// classifies.
func (f *Forwarder) Forward(frame []byte) (int, error) {
	var eth EthHeader
	if err := eth.Unmarshal(frame); err != nil {
		return 0, err
	}
	if eth.Type != EtherTypeIPv4 {
		return 0, ErrNotForUs
	}
	ipb, err := EthPayload(frame)
	if err != nil {
		return 0, err
	}
	var ip IPv4Header
	if err := ip.Unmarshal(ipb); err != nil {
		return 0, err
	}
	if f.Cache != nil {
		if e, ok := f.Cache.Lookup(ip.Dst); ok {
			if err := DecrementTTL(ipb); err != nil {
				return 0, err
			}
			out := EthHeader{Dst: e.DstMAC, Src: e.SrcMAC, Type: EtherTypeIPv4}
			if _, err := out.Marshal(frame); err != nil {
				return 0, err
			}
			return e.IfIndex, nil
		}
	}
	rt, err := f.Routes.Lookup(ip.Dst)
	if err != nil {
		return 0, err
	}
	if err := DecrementTTL(ipb); err != nil {
		return 0, err
	}
	nextHop := rt.NextHop
	if nextHop == (Addr{}) {
		nextHop = ip.Dst
	}
	dstMAC, ok := f.ARP.Lookup(nextHop)
	if !ok {
		return 0, ErrNoRoute
	}
	srcMAC := f.IfMAC[rt.IfIndex]
	out := EthHeader{Dst: dstMAC, Src: srcMAC, Type: EtherTypeIPv4}
	if _, err := out.Marshal(frame); err != nil {
		return 0, err
	}
	if f.Cache != nil {
		f.Cache.Insert(ip.Dst, FlowEntry{IfIndex: rt.IfIndex, DstMAC: dstMAC, SrcMAC: srcMAC})
	}
	return rt.IfIndex, nil
}
