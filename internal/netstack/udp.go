package netstack

import "encoding/binary"

// UDPHeaderLen is the length of a UDP header.
const UDPHeaderLen = 8

// UDPHeader is a decoded UDP header.
type UDPHeader struct {
	SrcPort  uint16
	DstPort  uint16
	Length   uint16
	Checksum uint16
}

// Marshal writes the header into b (>= UDPHeaderLen bytes) and returns
// the number of bytes written. The checksum field is written as stored;
// use ComputeUDPChecksum to fill it.
func (h *UDPHeader) Marshal(b []byte) (int, error) {
	if len(b) < UDPHeaderLen {
		return 0, ErrTruncated
	}
	binary.BigEndian.PutUint16(b[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], h.DstPort)
	binary.BigEndian.PutUint16(b[4:6], h.Length)
	binary.BigEndian.PutUint16(b[6:8], h.Checksum)
	return UDPHeaderLen, nil
}

// Unmarshal parses a UDP header from b.
func (h *UDPHeader) Unmarshal(b []byte) error {
	if len(b) < UDPHeaderLen {
		return ErrTruncated
	}
	h.SrcPort = binary.BigEndian.Uint16(b[0:2])
	h.DstPort = binary.BigEndian.Uint16(b[2:4])
	h.Length = binary.BigEndian.Uint16(b[4:6])
	h.Checksum = binary.BigEndian.Uint16(b[6:8])
	return nil
}

// ComputeUDPChecksum computes the UDP checksum over the pseudo-header,
// UDP header and payload. datagram is the UDP header plus payload with
// the checksum field zeroed or ignored. Per RFC 768, an all-zero result
// is transmitted as 0xffff.
func ComputeUDPChecksum(src, dst Addr, datagram []byte) uint16 {
	sum := pseudoSum(src, dst, ProtoUDP, len(datagram))
	// Sum the datagram with the checksum field treated as zero.
	sum = sumBytes(sum, datagram[:6])
	if len(datagram) > 8 {
		sum = sumBytes(sum, datagram[8:])
	}
	c := ^foldChecksum(sum)
	if c == 0 {
		c = 0xffff
	}
	return c
}

// VerifyUDPChecksum reports whether the datagram's checksum is valid.
// A zero checksum means "not computed" and is accepted, per RFC 768.
func VerifyUDPChecksum(src, dst Addr, datagram []byte) bool {
	if len(datagram) < UDPHeaderLen {
		return false
	}
	stored := binary.BigEndian.Uint16(datagram[6:8])
	if stored == 0 {
		return true
	}
	return ComputeUDPChecksum(src, dst, datagram) == stored
}
