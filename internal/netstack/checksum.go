package netstack

import "encoding/binary"

// Internet checksum arithmetic per RFC 1071, with the incremental-update
// rule from RFC 1624. The forwarding fast path uses the incremental form
// when decrementing TTL, exactly as production routers do; tests verify
// it against full recomputation.

// Checksum computes the 16-bit one's-complement of the one's-complement
// sum of b, with the standard odd-length zero-pad.
func Checksum(b []byte) uint16 {
	return ^foldChecksum(sumBytes(0, b))
}

// sumBytes adds b's big-endian 16-bit words to a running 32-bit
// partial one's-complement sum, four words per step; an odd last byte is
// the high half of a zero-padded word. The result is the plain integer
// sum of the words (mod 2^32), so callers may split a buffer at any even
// offset, or add a word's value later, and get the identical partial sum.
func sumBytes(sum uint32, b []byte) uint32 {
	for len(b) >= 8 {
		sum += uint32(binary.BigEndian.Uint16(b)) + uint32(binary.BigEndian.Uint16(b[2:])) +
			uint32(binary.BigEndian.Uint16(b[4:])) + uint32(binary.BigEndian.Uint16(b[6:]))
		b = b[8:]
	}
	for len(b) >= 2 {
		sum += uint32(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	return sum
}

// pseudoSum is the partial sum of the TCP/UDP pseudo-header: source
// and destination address, protocol, and the segment length n.
func pseudoSum(src, dst Addr, proto uint8, n int) uint32 {
	var pseudo [12]byte
	copy(pseudo[0:4], src[:])
	copy(pseudo[4:8], dst[:])
	pseudo[9] = proto
	binary.BigEndian.PutUint16(pseudo[10:12], uint16(n))
	return sumBytes(0, pseudo[:])
}

// foldChecksum reduces a 32-bit partial sum to 16 bits.
func foldChecksum(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return uint16(sum)
}

// ChecksumUpdate16 returns the checksum after a 16-bit field covered by
// it changes from old to new, using the RFC 1624 Eqn. 3 formulation:
//
//	HC' = ~(~HC + ~m + m')
//
// which is safe for all inputs (unlike the RFC 1141 form).
func ChecksumUpdate16(check, old, new uint16) uint16 {
	sum := uint32(^check&0xffff) + uint32(^old&0xffff) + uint32(new)
	return ^foldChecksum(sum)
}
