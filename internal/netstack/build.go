package netstack

import "encoding/binary"

// FrameSpec describes a UDP/IPv4/Ethernet frame to build.
type FrameSpec struct {
	SrcMAC, DstMAC   MAC
	SrcIP, DstIP     Addr
	SrcPort, DstPort uint16
	TTL              uint8
	IPID             uint16
	Payload          []byte
	// UDPChecksum controls whether the UDP checksum is computed; the
	// paper's generator sends 4-byte UDP payloads, checksummed.
	UDPChecksum bool
}

// FrameLen returns the wire length the spec will produce, including
// minimum-frame padding.
func (s *FrameSpec) FrameLen() int {
	n := EthHeaderLen + IPv4HeaderLen + UDPHeaderLen + len(s.Payload)
	if n < EthMinFrame {
		n = EthMinFrame
	}
	return n
}

// BuildUDPFrame encodes the spec into b, which must be at least
// s.FrameLen() bytes, and returns the frame length. Padding bytes beyond
// the IP datagram are zeroed (Ethernet minimum-frame padding).
func BuildUDPFrame(b []byte, s *FrameSpec) (int, error) {
	frameLen := s.FrameLen()
	if len(b) < frameLen {
		return 0, ErrTruncated
	}
	eth := EthHeader{Dst: s.DstMAC, Src: s.SrcMAC, Type: EtherTypeIPv4}
	if _, err := eth.Marshal(b); err != nil {
		return 0, err
	}
	ttl := s.TTL
	if ttl == 0 {
		ttl = 64
	}
	ipLen := IPv4HeaderLen + UDPHeaderLen + len(s.Payload)
	ip := IPv4Header{
		TotalLen: uint16(ipLen),
		ID:       s.IPID,
		TTL:      ttl,
		Protocol: ProtoUDP,
		Src:      s.SrcIP,
		Dst:      s.DstIP,
	}
	if _, err := ip.Marshal(b[EthHeaderLen:]); err != nil {
		return 0, err
	}
	udpStart := EthHeaderLen + IPv4HeaderLen
	udp := UDPHeader{
		SrcPort: s.SrcPort,
		DstPort: s.DstPort,
		Length:  uint16(UDPHeaderLen + len(s.Payload)),
	}
	if _, err := udp.Marshal(b[udpStart:]); err != nil {
		return 0, err
	}
	copy(b[udpStart+UDPHeaderLen:], s.Payload)
	// Zero any minimum-frame padding.
	for i := EthHeaderLen + ipLen; i < frameLen; i++ {
		b[i] = 0
	}
	if s.UDPChecksum {
		datagram := b[udpStart : udpStart+UDPHeaderLen+len(s.Payload)]
		c := ComputeUDPChecksum(s.SrcIP, s.DstIP, datagram)
		binary.BigEndian.PutUint16(b[udpStart+6:udpStart+8], c)
	}
	return frameLen, nil
}

// UDPTemplate is one UDP flow's frame, built once, from which the
// flow's packets are stamped: per packet only the IP ID and the UDP
// source port change. It keeps the exact partial sums (sumBytes before
// the fold) of the IP header and of the UDP pseudo-header plus
// datagram, each with those fields and its checksum zero. Stamp adds
// the packet's field value to a sum and folds, which is the arithmetic
// BuildUDPFrame does over the whole header, so every stamped frame is
// byte-identical to the one BuildUDPFrame builds for the same spec.
type UDPTemplate struct {
	frame       []byte
	ipSum       uint32
	udpSum      uint32
	udpChecksum bool
}

// NewUDPTemplate builds the template of s's flow. s.IPID and s.SrcPort
// are ignored: Stamp supplies them per packet.
func NewUDPTemplate(s FrameSpec) *UDPTemplate {
	s.IPID, s.SrcPort = 0, 0
	t := &UDPTemplate{frame: make([]byte, s.FrameLen()), udpChecksum: s.UDPChecksum}
	s.UDPChecksum = false
	if _, err := BuildUDPFrame(t.frame, &s); err != nil {
		// Impossible by construction: the buffer was sized by FrameLen.
		panic(err)
	}
	ip := t.frame[EthHeaderLen : EthHeaderLen+IPv4HeaderLen]
	ip[10], ip[11] = 0, 0
	t.ipSum = sumBytes(0, ip)
	udpStart := EthHeaderLen + IPv4HeaderLen
	datagram := t.frame[udpStart : udpStart+UDPHeaderLen+len(s.Payload)]
	t.udpSum = sumBytes(pseudoSum(s.SrcIP, s.DstIP, ProtoUDP, len(datagram)), datagram)
	return t
}

// Len returns the frame length, minimum-frame padding included.
func (t *UDPTemplate) Len() int { return len(t.frame) }

// Stamp writes the flow's frame with IP ID ipid and UDP source port
// srcPort into b, which must be at least Len() bytes.
func (t *UDPTemplate) Stamp(b []byte, ipid, srcPort uint16) {
	copy(b, t.frame)
	ip := b[EthHeaderLen:]
	binary.BigEndian.PutUint16(ip[4:6], ipid)
	binary.BigEndian.PutUint16(ip[10:12], ^foldChecksum(t.ipSum+uint32(ipid)))
	udp := ip[IPv4HeaderLen:]
	binary.BigEndian.PutUint16(udp[0:2], srcPort)
	if t.udpChecksum {
		c := ^foldChecksum(t.udpSum + uint32(srcPort))
		if c == 0 {
			c = 0xffff // RFC 768, as ComputeUDPChecksum
		}
		binary.BigEndian.PutUint16(udp[6:8], c)
	}
}

// ParseUDPFrame decodes an Ethernet/IPv4/UDP frame, validating the IP
// checksum, and returns the headers and UDP payload. Used by sinks and
// by tests to confirm that forwarded frames are intact.
func ParseUDPFrame(frame []byte) (EthHeader, IPv4Header, UDPHeader, []byte, error) {
	var eth EthHeader
	var ip IPv4Header
	var udp UDPHeader
	if err := eth.Unmarshal(frame); err != nil {
		return eth, ip, udp, nil, err
	}
	if eth.Type != EtherTypeIPv4 {
		return eth, ip, udp, nil, ErrBadVersion
	}
	ipb, err := EthPayload(frame)
	if err != nil {
		return eth, ip, udp, nil, err
	}
	if err := ip.Unmarshal(ipb); err != nil {
		return eth, ip, udp, nil, err
	}
	if ip.Protocol != ProtoUDP {
		return eth, ip, udp, nil, ErrBadHeader
	}
	udpb := ipb[IPv4HeaderLen:ip.TotalLen]
	if err := udp.Unmarshal(udpb); err != nil {
		return eth, ip, udp, nil, err
	}
	if int(udp.Length) < UDPHeaderLen || int(udp.Length) > len(udpb) {
		return eth, ip, udp, nil, ErrBadHeader
	}
	return eth, ip, udp, udpb[UDPHeaderLen:udp.Length], nil
}
