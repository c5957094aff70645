package netstack

import "encoding/binary"

// TCP wire format (RFC 793, option-less) and checksum. §7.1 of the
// paper discusses — but could not measure — how the kernel changes
// affect end-system transports like TCP; the kernel package implements
// a Tahoe-style sender/receiver over these headers so that experiment
// can be run.

// TCPHeaderLen is the length of an option-less TCP header.
const TCPHeaderLen = 20

// ProtoTCP is the IP protocol number for TCP.
const ProtoTCP = 6

// TCP flag bits.
const (
	TCPFin = 1 << 0
	TCPSyn = 1 << 1
	TCPRst = 1 << 2
	TCPPsh = 1 << 3
	TCPAck = 1 << 4
)

// TCPHeader is a decoded TCP header. DataOff is the header length in
// 32-bit words (5 for an option-less header; up to 15 with options);
// Marshal treats a zero DataOff as 5, so specs that never touch the
// field produce the historical 20-byte header byte-for-byte.
type TCPHeader struct {
	SrcPort  uint16
	DstPort  uint16
	Seq      uint32
	Ack      uint32
	DataOff  uint8
	Flags    uint8
	Window   uint16
	Checksum uint16
}

// HeaderLen returns the header length in bytes (options included).
func (h *TCPHeader) HeaderLen() int {
	if h.DataOff < 5 {
		return TCPHeaderLen
	}
	return 4 * int(h.DataOff)
}

// Marshal writes the fixed 20-byte part of the header into b with the
// stored checksum; callers with options write them at b[TCPHeaderLen:]
// themselves and use FinishTCPChecksum over the full segment.
func (h *TCPHeader) Marshal(b []byte) (int, error) {
	if len(b) < TCPHeaderLen {
		return 0, ErrTruncated
	}
	binary.BigEndian.PutUint16(b[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], h.DstPort)
	binary.BigEndian.PutUint32(b[4:8], h.Seq)
	binary.BigEndian.PutUint32(b[8:12], h.Ack)
	doff := h.DataOff
	if doff < 5 {
		doff = 5
	}
	b[12] = doff << 4
	b[13] = h.Flags
	binary.BigEndian.PutUint16(b[14:16], h.Window)
	binary.BigEndian.PutUint16(b[16:18], h.Checksum)
	b[18], b[19] = 0, 0 // urgent pointer
	return TCPHeaderLen, nil
}

// Unmarshal parses a TCP header from b. Headers with options (data
// offset 6–15) are accepted when b covers the full header; the option
// bytes themselves are left for the caller (see ParseSACKBlocks).
func (h *TCPHeader) Unmarshal(b []byte) error {
	if len(b) < TCPHeaderLen {
		return ErrTruncated
	}
	doff := b[12] >> 4
	if doff < 5 {
		return ErrBadHeader
	}
	if len(b) < 4*int(doff) {
		return ErrTruncated
	}
	h.SrcPort = binary.BigEndian.Uint16(b[0:2])
	h.DstPort = binary.BigEndian.Uint16(b[2:4])
	h.Seq = binary.BigEndian.Uint32(b[4:8])
	h.Ack = binary.BigEndian.Uint32(b[8:12])
	h.DataOff = doff
	h.Flags = b[13]
	h.Window = binary.BigEndian.Uint16(b[14:16])
	h.Checksum = binary.BigEndian.Uint16(b[16:18])
	return nil
}

// SACKBlock reports one received run of out-of-order data, [Start, End)
// in sequence space (RFC 2018).
type SACKBlock struct {
	Start, End uint32
}

// MaxSACKBlocks is the most blocks one header can carry here: each
// block is 8 bytes, plus 2 bytes of NOP padding and the 2-byte option
// header, and the whole header must fit in 60 bytes.
const MaxSACKBlocks = 4

// TCP option kinds used by the SACK encoding.
const (
	tcpOptEOL  = 0
	tcpOptNOP  = 1
	tcpOptSACK = 5
)

// sackOptionLen returns the wire length of a SACK option carrying n
// blocks, NOP-NOP padded to a 4-byte boundary (0 for n == 0).
func sackOptionLen(n int) int {
	if n <= 0 {
		return 0
	}
	return 4 + 8*n // NOP, NOP, kind, len, then 8 bytes per block
}

// appendSACKOption encodes blocks at b (which must have room) and
// returns the bytes written.
func appendSACKOption(b []byte, blocks []SACKBlock) int {
	if len(blocks) == 0 {
		return 0
	}
	b[0], b[1] = tcpOptNOP, tcpOptNOP
	b[2] = tcpOptSACK
	b[3] = byte(2 + 8*len(blocks))
	off := 4
	for _, blk := range blocks {
		binary.BigEndian.PutUint32(b[off:], blk.Start)
		binary.BigEndian.PutUint32(b[off+4:], blk.End)
		off += 8
	}
	return off
}

// ParseSACKBlocks scans a header's option bytes for a SACK option and
// appends its blocks to dst (pass a stack- or struct-backed slice to
// stay allocation-free). Unknown options are skipped by their declared
// length; malformed option lists end the scan.
func ParseSACKBlocks(opts []byte, dst []SACKBlock) []SACKBlock {
	for len(opts) > 0 {
		switch opts[0] {
		case tcpOptEOL:
			return dst
		case tcpOptNOP:
			opts = opts[1:]
		default:
			if len(opts) < 2 {
				return dst
			}
			optLen := int(opts[1])
			if optLen < 2 || optLen > len(opts) {
				return dst
			}
			if opts[0] == tcpOptSACK && (optLen-2)%8 == 0 {
				for off := 2; off+8 <= optLen && len(dst) < cap(dst); off += 8 {
					dst = append(dst, SACKBlock{
						Start: binary.BigEndian.Uint32(opts[off:]),
						End:   binary.BigEndian.Uint32(opts[off+4:]),
					})
				}
			}
			opts = opts[optLen:]
		}
	}
	return dst
}

// FinishTCPChecksum computes and stores the checksum over a whole TCP
// segment (header + payload) whose checksum field is zero.
func FinishTCPChecksum(src, dst Addr, segment []byte) {
	segment[16], segment[17] = 0, 0
	sum := pseudoSum(src, dst, ProtoTCP, len(segment))
	sum = sumBytes(sum, segment)
	binary.BigEndian.PutUint16(segment[16:18], ^foldChecksum(sum))
}

// VerifyTCPChecksum reports whether a segment's checksum is valid.
func VerifyTCPChecksum(src, dst Addr, segment []byte) bool {
	if len(segment) < TCPHeaderLen {
		return false
	}
	sum := pseudoSum(src, dst, ProtoTCP, len(segment))
	sum = sumBytes(sum, segment)
	return foldChecksum(sum) == 0xffff
}

// TCPSpec describes a TCP/IPv4/Ethernet frame to build. A non-empty
// SACK slice (at most MaxSACKBlocks) adds a padded SACK option; an
// empty one produces the historical option-less frame byte-for-byte.
type TCPSpec struct {
	SrcMAC, DstMAC   MAC
	SrcIP, DstIP     Addr
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	IPID             uint16
	SACK             []SACKBlock
	Payload          []byte
}

// tcpHeaderLen returns the TCP header length the spec will produce,
// options included.
func (s *TCPSpec) tcpHeaderLen() int { return TCPHeaderLen + sackOptionLen(len(s.SACK)) }

// FrameLen returns the wire length the spec will produce.
func (s *TCPSpec) FrameLen() int {
	n := EthHeaderLen + IPv4HeaderLen + s.tcpHeaderLen() + len(s.Payload)
	if n < EthMinFrame {
		n = EthMinFrame
	}
	return n
}

// BuildTCPFrame encodes the spec into b (>= s.FrameLen()).
func BuildTCPFrame(b []byte, s *TCPSpec) (int, error) {
	frameLen := s.FrameLen()
	if len(b) < frameLen {
		return 0, ErrTruncated
	}
	eth := EthHeader{Dst: s.DstMAC, Src: s.SrcMAC, Type: EtherTypeIPv4}
	if _, err := eth.Marshal(b); err != nil {
		return 0, err
	}
	if len(s.SACK) > MaxSACKBlocks {
		return 0, ErrBadHeader
	}
	tcpLen := s.tcpHeaderLen()
	ipLen := IPv4HeaderLen + tcpLen + len(s.Payload)
	ip := IPv4Header{
		TotalLen: uint16(ipLen),
		ID:       s.IPID,
		TTL:      64,
		Protocol: ProtoTCP,
		Src:      s.SrcIP,
		Dst:      s.DstIP,
	}
	if _, err := ip.Marshal(b[EthHeaderLen:]); err != nil {
		return 0, err
	}
	tcpStart := EthHeaderLen + IPv4HeaderLen
	th := TCPHeader{
		SrcPort: s.SrcPort, DstPort: s.DstPort,
		Seq: s.Seq, Ack: s.Ack, DataOff: uint8(tcpLen / 4),
		Flags: s.Flags, Window: s.Window,
	}
	if _, err := th.Marshal(b[tcpStart:]); err != nil {
		return 0, err
	}
	appendSACKOption(b[tcpStart+TCPHeaderLen:], s.SACK)
	copy(b[tcpStart+tcpLen:], s.Payload)
	for i := EthHeaderLen + ipLen; i < frameLen; i++ {
		b[i] = 0
	}
	FinishTCPChecksum(s.SrcIP, s.DstIP, b[tcpStart:tcpStart+tcpLen+len(s.Payload)])
	return frameLen, nil
}

// ParseTCPFrame decodes an Ethernet/IPv4/TCP frame, verifying both
// checksums, and returns the headers and payload.
func ParseTCPFrame(frame []byte) (EthHeader, IPv4Header, TCPHeader, []byte, error) {
	var eth EthHeader
	var ip IPv4Header
	var th TCPHeader
	if err := eth.Unmarshal(frame); err != nil {
		return eth, ip, th, nil, err
	}
	if eth.Type != EtherTypeIPv4 {
		return eth, ip, th, nil, ErrBadVersion
	}
	ipb, err := EthPayload(frame)
	if err != nil {
		return eth, ip, th, nil, err
	}
	if err := ip.Unmarshal(ipb); err != nil {
		return eth, ip, th, nil, err
	}
	if ip.Protocol != ProtoTCP {
		return eth, ip, th, nil, ErrBadHeader
	}
	seg := ipb[IPv4HeaderLen:ip.TotalLen]
	if !VerifyTCPChecksum(ip.Src, ip.Dst, seg) {
		return eth, ip, th, nil, ErrBadChecksum
	}
	if err := th.Unmarshal(seg); err != nil {
		return eth, ip, th, nil, err
	}
	return eth, ip, th, seg[th.HeaderLen():], nil
}
