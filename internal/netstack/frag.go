package netstack

import "encoding/binary"

// IsFragment reports whether an Ethernet/IPv4 frame is a fragment (MF
// set or non-zero offset). No simulated host fragments or reassembles:
// the paper's workload is minimum-size datagrams, so a fragment can only
// be injected, and end hosts reject it as malformed.
func IsFragment(frame []byte) bool {
	if len(frame) < EthHeaderLen+IPv4HeaderLen {
		return false
	}
	word := binary.BigEndian.Uint16(frame[EthHeaderLen+6 : EthHeaderLen+8])
	return word&0x3fff != 0 // any offset bit or MF
}
