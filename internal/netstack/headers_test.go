package netstack

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestEthHeaderRoundTrip(t *testing.T) {
	check := func(dst, src [6]byte, typ uint16) bool {
		h := EthHeader{Dst: MAC(dst), Src: MAC(src), Type: EtherType(typ)}
		var b [EthHeaderLen]byte
		if _, err := h.Marshal(b[:]); err != nil {
			return false
		}
		var got EthHeader
		if err := got.Unmarshal(b[:]); err != nil {
			return false
		}
		return got == h
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEthHeaderTruncated(t *testing.T) {
	var h EthHeader
	if err := h.Unmarshal(make([]byte, 13)); err != ErrTruncated {
		t.Fatalf("Unmarshal short buffer: err = %v, want ErrTruncated", err)
	}
	if _, err := h.Marshal(make([]byte, 5)); err != ErrTruncated {
		t.Fatalf("Marshal short buffer: err = %v, want ErrTruncated", err)
	}
}

func TestMACString(t *testing.T) {
	m := MAC{0x02, 0x00, 0xab, 0xcd, 0xef, 0x01}
	if got := m.String(); got != "02:00:ab:cd:ef:01" {
		t.Fatalf("String = %q", got)
	}
	if !BroadcastMAC.IsBroadcast() || m.IsBroadcast() {
		t.Fatal("IsBroadcast misclassified")
	}
}

func TestIPv4HeaderRoundTrip(t *testing.T) {
	check := func(tos uint8, totalLen, id uint16, flags uint8, fragOff uint16,
		ttl, proto uint8, src, dst [4]byte) bool {
		if totalLen < IPv4HeaderLen {
			totalLen = IPv4HeaderLen
		}
		h := IPv4Header{
			TOS: tos, TotalLen: totalLen, ID: id,
			Flags: flags & 0x7, FragOff: fragOff & 0x1fff,
			TTL: ttl, Protocol: proto, Src: Addr(src), Dst: Addr(dst),
		}
		b := make([]byte, int(totalLen))
		if _, err := h.Marshal(b); err != nil {
			return false
		}
		var got IPv4Header
		if err := got.Unmarshal(b); err != nil {
			return false
		}
		return got == h // Marshal fills h.Checksum, Unmarshal reads it back
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestIPv4HeaderRejectsCorruption(t *testing.T) {
	h := IPv4Header{TotalLen: 40, TTL: 64, Protocol: ProtoUDP,
		Src: AddrFrom(10, 0, 0, 1), Dst: AddrFrom(10, 0, 1, 2)}
	b := make([]byte, 40)
	if _, err := h.Marshal(b); err != nil {
		t.Fatal(err)
	}
	// Flip a bit: checksum must fail.
	b[15] ^= 0x40
	var got IPv4Header
	if err := got.Unmarshal(b); err != ErrBadChecksum {
		t.Fatalf("corrupted header: err = %v, want ErrBadChecksum", err)
	}
	b[15] ^= 0x40
	// Wrong version.
	b[0] = 0x65
	if err := got.Unmarshal(b); err != ErrBadVersion {
		t.Fatalf("wrong version: err = %v, want ErrBadVersion", err)
	}
}

func TestDecrementTTL(t *testing.T) {
	h := IPv4Header{TotalLen: 28, TTL: 64, Protocol: ProtoUDP,
		Src: AddrFrom(192, 168, 0, 1), Dst: AddrFrom(10, 9, 8, 7)}
	b := make([]byte, 28)
	if _, err := h.Marshal(b); err != nil {
		t.Fatal(err)
	}
	if err := DecrementTTL(b); err != nil {
		t.Fatal(err)
	}
	var got IPv4Header
	if err := got.Unmarshal(b); err != nil {
		t.Fatalf("checksum invalid after incremental TTL update: %v", err)
	}
	if got.TTL != 63 {
		t.Fatalf("TTL = %d, want 63", got.TTL)
	}
}

func TestDecrementTTLExpired(t *testing.T) {
	for _, ttl := range []uint8{0, 1} {
		h := IPv4Header{TotalLen: 20, TTL: ttl, Protocol: ProtoUDP}
		b := make([]byte, 20)
		if _, err := h.Marshal(b); err != nil {
			t.Fatal(err)
		}
		if err := DecrementTTL(b); err != ErrTTLExceeded {
			t.Fatalf("TTL=%d: err = %v, want ErrTTLExceeded", ttl, err)
		}
	}
}

func TestDecrementTTLPropertyChecksumStaysValid(t *testing.T) {
	// Property: for any valid header with TTL > 1, DecrementTTL leaves a
	// header whose checksum verifies.
	check := func(ttl uint8, id uint16, src, dst [4]byte) bool {
		if ttl <= 1 {
			ttl += 2
		}
		h := IPv4Header{TotalLen: 20, ID: id, TTL: ttl, Protocol: ProtoUDP,
			Src: Addr(src), Dst: Addr(dst)}
		b := make([]byte, 20)
		if _, err := h.Marshal(b); err != nil {
			return false
		}
		if err := DecrementTTL(b); err != nil {
			return false
		}
		return Checksum(b) == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestUDPHeaderRoundTrip(t *testing.T) {
	check := func(sp, dp, ln, ck uint16) bool {
		h := UDPHeader{SrcPort: sp, DstPort: dp, Length: ln, Checksum: ck}
		var b [UDPHeaderLen]byte
		if _, err := h.Marshal(b[:]); err != nil {
			return false
		}
		var got UDPHeader
		if err := got.Unmarshal(b[:]); err != nil {
			return false
		}
		return got == h
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUDPChecksum(t *testing.T) {
	src, dst := AddrFrom(10, 0, 0, 2), AddrFrom(10, 0, 1, 9)
	payload := []byte{0xde, 0xad, 0xbe, 0xef}
	h := UDPHeader{SrcPort: 5001, DstPort: 9, Length: uint16(UDPHeaderLen + len(payload))}
	datagram := make([]byte, UDPHeaderLen+len(payload))
	if _, err := h.Marshal(datagram); err != nil {
		t.Fatal(err)
	}
	copy(datagram[UDPHeaderLen:], payload)
	c := ComputeUDPChecksum(src, dst, datagram)
	datagram[6] = byte(c >> 8)
	datagram[7] = byte(c)
	if !VerifyUDPChecksum(src, dst, datagram) {
		t.Fatal("checksum did not verify")
	}
	datagram[9] ^= 0x01
	if VerifyUDPChecksum(src, dst, datagram) {
		t.Fatal("corrupted datagram verified")
	}
}

func TestBuildAndParseUDPFrame(t *testing.T) {
	spec := &FrameSpec{
		SrcMAC: MAC{0xaa, 0, 0, 0, 0, 1}, DstMAC: MAC{0xaa, 0, 0, 0, 0, 2},
		SrcIP: AddrFrom(10, 0, 0, 2), DstIP: AddrFrom(10, 0, 1, 9),
		SrcPort: 4242, DstPort: 9, Payload: []byte{1, 2, 3, 4},
		UDPChecksum: true,
	}
	b := make([]byte, spec.FrameLen())
	n, err := BuildUDPFrame(b, spec)
	if err != nil {
		t.Fatal(err)
	}
	if n != EthMinFrame {
		t.Fatalf("frame length %d, want minimum frame %d", n, EthMinFrame)
	}
	eth, ip, udp, payload, err := ParseUDPFrame(b[:n])
	if err != nil {
		t.Fatal(err)
	}
	if eth.Src != spec.SrcMAC || eth.Dst != spec.DstMAC {
		t.Fatal("MAC mismatch")
	}
	if ip.Src != spec.SrcIP || ip.Dst != spec.DstIP || ip.TTL != 64 {
		t.Fatalf("IP mismatch: %+v", ip)
	}
	if udp.SrcPort != 4242 || udp.DstPort != 9 {
		t.Fatalf("UDP mismatch: %+v", udp)
	}
	if !bytes.Equal(payload, spec.Payload) {
		t.Fatalf("payload = %v", payload)
	}
	if !VerifyUDPChecksum(ip.Src, ip.Dst, b[EthHeaderLen+IPv4HeaderLen:EthHeaderLen+ip.TotalLen]) {
		t.Fatal("UDP checksum invalid")
	}
}

func TestBuildUDPFrameRoundTripProperty(t *testing.T) {
	check := func(payload []byte, sp, dp uint16, srcIP, dstIP [4]byte) bool {
		if len(payload) > EthMTU-IPv4HeaderLen-UDPHeaderLen {
			payload = payload[:EthMTU-IPv4HeaderLen-UDPHeaderLen]
		}
		spec := &FrameSpec{
			SrcIP: Addr(srcIP), DstIP: Addr(dstIP),
			SrcPort: sp, DstPort: dp, Payload: payload, UDPChecksum: true,
		}
		b := make([]byte, spec.FrameLen())
		n, err := BuildUDPFrame(b, spec)
		if err != nil {
			return false
		}
		_, ip, udp, got, err := ParseUDPFrame(b[:n])
		if err != nil {
			return false
		}
		return ip.Src == Addr(srcIP) && ip.Dst == Addr(dstIP) &&
			udp.SrcPort == sp && udp.DstPort == dp && bytes.Equal(got, payload)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestUDPTemplateMatchesBuildUDPFrame stamps every IP ID under several
// source ports (both ends of the range, and a cycling spread that wraps
// past 0xffff), then every source port under a few IP IDs, for 0-, 4-
// and 100-byte payloads, into a junk-filled buffer, and requires each
// frame to equal BuildUDPFrame's byte for byte. Sweeping every port
// reaches the UDP checksum that folds to zero, sent as 0xffff.
func TestUDPTemplateMatchesBuildUDPFrame(t *testing.T) {
	ports := []uint16{0, 1, 4000, 0x8000, 0xfffe, 0xffff}
	for _, n := range []int{0, 4, 100} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i*37 + 11)
		}
		spec := FrameSpec{
			SrcMAC: MAC{0xbb, 0, 0, 0, 0, 1}, DstMAC: MAC{0xaa, 0, 0, 0, 0, 1},
			SrcIP: AddrFrom(10, 0, 0, 2), DstIP: AddrFrom(10, 0, 1, 9),
			DstPort: 9, Payload: payload, UDPChecksum: true,
		}
		tmpl := NewUDPTemplate(spec)
		if tmpl.Len() != spec.FrameLen() {
			t.Fatalf("%d-byte payload: template length %d, want %d", n, tmpl.Len(), spec.FrameLen())
		}
		got := make([]byte, tmpl.Len())
		want := make([]byte, tmpl.Len())
		zeroSums := 0
		check := func(ipid, port uint16) {
			for i := range got {
				got[i] = byte(i) ^ 0xa5 ^ byte(ipid) ^ byte(port>>8)
			}
			tmpl.Stamp(got, ipid, port)
			spec.IPID, spec.SrcPort = ipid, port
			if _, err := BuildUDPFrame(want, &spec); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%d-byte payload, IPID %#04x, port %#04x:\n got  %x\n want %x", n, ipid, port, got, want)
			}
			if binary.BigEndian.Uint16(got[EthHeaderLen+IPv4HeaderLen+6:]) == 0xffff {
				zeroSums++
			}
		}
		for id := 0; id <= 0xffff; id++ {
			for _, port := range ports {
				check(uint16(id), port)
			}
			check(uint16(id), 0xfff8+uint16(id%16)) // a spread of 16 from 0xfff8 wraps
		}
		for port := 0; port <= 0xffff; port++ {
			for _, id := range []uint16{0, 0x1234, 0xffff} {
				check(id, uint16(port))
			}
		}
		if zeroSums == 0 {
			t.Errorf("%d-byte payload: no source port gave the all-zero UDP checksum", n)
		}
	}
}
