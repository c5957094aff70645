package kernel

import (
	"testing"

	"livelock/internal/netstack"
	"livelock/internal/sim"
)

// injectFirstFragments puts n first fragments (MF set, offset zero) of
// UDP datagrams addressed to dst on input wire 0. No simulated host
// fragments, so raw injection is the only way a fragment arrives.
func injectFirstFragments(t *testing.T, r *Router, dst netstack.Addr, n int) {
	t.Helper()
	spec := &netstack.FrameSpec{
		SrcMAC: netstack.MAC{0xbb, 0, 0, 0, 0, 1}, DstMAC: r.Ins[0].MAC(),
		SrcIP: InputSourceIP(0), DstIP: dst,
		SrcPort: 5000, DstPort: 9,
		Payload: []byte{1, 2, 3, 4}, UDPChecksum: true,
	}
	for i := 0; i < n; i++ {
		p := r.Pool.Get(spec.FrameLen())
		if _, err := netstack.BuildUDPFrame(p.Data, spec); err != nil {
			t.Fatal(err)
		}
		ipb := p.Data[netstack.EthHeaderLen:]
		var ip netstack.IPv4Header
		if err := ip.Unmarshal(ipb); err != nil {
			t.Fatal(err)
		}
		ip.Flags = 0x1 // MF
		if _, err := ip.Marshal(ipb); err != nil {
			t.Fatal(err)
		}
		if !netstack.IsFragment(p.Data) {
			t.Fatal("built frame is not a fragment")
		}
		p.ID = uint64(i + 1)
		p.Born = r.Eng.Now()
		r.SourceWires[0].Transmit(p)
	}
}

// TestInjectedFragmentToRouterIsMalformedDrop: the router does not
// reassemble, so a fragment addressed to it is a counted malformed
// drop, and the conservation audit balances.
func TestInjectedFragmentToRouterIsMalformedDrop(t *testing.T) {
	const n = 5
	for _, mode := range []Mode{ModeUnmodified, ModePolled} {
		eng := sim.NewEngine()
		r := NewRouter(eng, Config{Mode: mode, Quota: 5})
		injectFirstFragments(t, r, RouterIP(0), n)
		eng.Run(sim.Time(100 * sim.Millisecond))
		if got := r.FwdErrors.Value(); got != n {
			t.Errorf("%v: FwdErrors = %d, want %d malformed drops", mode, got, n)
		}
		if err := r.Audit(n); err != nil {
			t.Errorf("%v: %v", mode, err)
		}
	}
}

// TestInjectedFragmentToPhantomIsSinkMalformed: a forwarded fragment
// reaches the stub Ethernet's analyzer, which cannot validate a lone
// fragment and counts it malformed; the audit balances.
func TestInjectedFragmentToPhantomIsSinkMalformed(t *testing.T) {
	const n = 5
	for _, mode := range []Mode{ModeUnmodified, ModePolled} {
		eng := sim.NewEngine()
		r := NewRouter(eng, Config{Mode: mode, Quota: 5})
		injectFirstFragments(t, r, PhantomDest, n)
		eng.Run(sim.Time(100 * sim.Millisecond))
		if got := r.Sink.Malformed.Value(); got != n {
			t.Errorf("%v: sink Malformed = %d, want %d (delivered %d)",
				mode, got, n, r.Sink.Delivered.Value())
		}
		if err := r.Audit(n); err != nil {
			t.Errorf("%v: %v", mode, err)
		}
	}
}
