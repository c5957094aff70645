package netstack

import (
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestChecksumKnownVector(t *testing.T) {
	// Example from RFC 1071 §3: bytes 00 01 f2 03 f4 f5 f6 f7
	// one's-complement sum = ddf2, checksum = ^ddf2 = 220d.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b); got != 0x220d {
		t.Fatalf("Checksum = %#04x, want 0x220d", got)
	}
}

func TestChecksumOddLength(t *testing.T) {
	// Odd length pads with a zero byte on the right.
	odd := []byte{0x01, 0x02, 0x03}
	even := []byte{0x01, 0x02, 0x03, 0x00}
	if Checksum(odd) != Checksum(even) {
		t.Fatal("odd-length checksum differs from zero-padded even form")
	}
}

func TestChecksumVerifiesToZero(t *testing.T) {
	// Property: embedding the checksum into the data makes the total
	// checksum verify (sum to zero) for any content.
	check := func(data []byte) bool {
		if len(data) < 2 {
			return true
		}
		if len(data)%2 == 1 {
			data = data[:len(data)-1]
		}
		// Zero a checksum slot, compute, store, verify.
		data[0], data[1] = 0, 0
		c := Checksum(data)
		binary.BigEndian.PutUint16(data[0:2], c)
		return Checksum(data) == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumUpdate16MatchesRecompute(t *testing.T) {
	// Property (RFC 1624): incrementally updating a 16-bit field gives
	// the same checksum as recomputing from scratch — except when the
	// updated data is entirely zero. One's-complement arithmetic has two
	// representations of zero, and only an all-zero byte string sums to
	// +0: full recomputation then yields 0xFFFF while the incremental
	// form, which works from folded 16-bit quantities and can never
	// reconstruct the exact +0 sum, yields 0x0000. Both verify as zero,
	// and no real header is all-zero, so the property compares modulo
	// that single equivalence (see TestChecksumUpdate16AllZeroDualZero).
	check := func(data []byte, idx uint8, newVal uint16) bool {
		if len(data) < 4 {
			return true
		}
		if len(data)%2 == 1 {
			data = data[:len(data)-1]
		}
		// Pick an aligned 16-bit field that is not the checksum slot (0).
		fi := 2 + 2*(int(idx)%((len(data)-2)/2))
		data[0], data[1] = 0, 0
		c := Checksum(data)
		binary.BigEndian.PutUint16(data[0:2], c)

		old := binary.BigEndian.Uint16(data[fi : fi+2])
		binary.BigEndian.PutUint16(data[fi:fi+2], newVal)
		inc := ChecksumUpdate16(c, old, newVal)

		data[0], data[1] = 0, 0
		full := Checksum(data)
		if inc == full {
			return true
		}
		// The dual-zero escape hatch: tolerated only when the covered
		// data is all zero and the two results are the two zeros.
		for _, b := range data {
			if b != 0 {
				return false
			}
		}
		return inc == 0x0000 && full == 0xffff
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumUpdate16AllZeroDualZero(t *testing.T) {
	// Pin the one input class where incremental update and full
	// recomputation legitimately disagree: all-zero data. The full
	// computation of an all-zero buffer is ^(+0) = 0xFFFF; a no-op
	// incremental update of that checksum adds ~m + m' = 0xFFFF (-0)
	// to the folded sum and lands on the other zero, ^(-0) = 0x0000.
	data := []byte{0, 0, 0, 0}
	full := Checksum(data)
	if full != 0xffff {
		t.Fatalf("Checksum(all-zero) = %#04x, want 0xffff", full)
	}
	if inc := ChecksumUpdate16(full, 0, 0); inc != 0x0000 {
		t.Fatalf("ChecksumUpdate16(0xffff, 0, 0) = %#04x, want 0x0000", inc)
	}
}

// sumBytesReference is the byte-at-a-time partial sum sumBytes replaced.
func sumBytesReference(sum uint32, b []byte) uint32 {
	n := len(b)
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if n%2 == 1 {
		sum += uint32(b[n-1]) << 8
	}
	return sum
}

// TestSumBytesMatchesReference checks the word-wise sum against the
// byte-wise one for every length up to a full frame, at odd and even
// buffer offsets, from zero and from a nonzero running sum.
func TestSumBytesMatchesReference(t *testing.T) {
	buf := make([]byte, EthMaxFrame+1)
	rng := uint32(1)
	for i := range buf {
		rng = rng*1664525 + 1013904223
		buf[i] = byte(rng >> 24)
	}
	for off := 0; off <= 1; off++ {
		for n := 0; n <= EthMaxFrame; n++ {
			b := buf[off : off+n]
			for _, start := range []uint32{0, 0xfffe_1234} {
				if got, want := sumBytes(start, b), sumBytesReference(start, b); got != want {
					t.Fatalf("offset %d, length %d, start %#x: sumBytes = %#x, want %#x", off, n, start, got, want)
				}
			}
		}
	}
}
