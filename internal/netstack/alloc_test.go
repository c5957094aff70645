package netstack

import "testing"

// Pool.Get and Packet.Release recycle fixed buffers; a change that
// makes either allocate turns every forwarded frame into garbage-
// collector work, which is exactly what the mbuf-style pool exists to
// avoid.
func TestAllocsPoolGetRelease(t *testing.T) {
	pool := NewPool(16, 2048)
	allocs := testing.AllocsPerRun(1000, func() {
		var pkts [16]*Packet
		for i := range pkts {
			pkts[i] = pool.Get(1514)
		}
		for _, p := range pkts {
			p.Release()
		}
	})
	if allocs != 0 {
		t.Fatalf("pool get/release cycle allocates %v objects, want 0", allocs)
	}
}

// NewPool backs every buffer with one slab: the allocation count does
// not grow with the buffer count, and each buffer's capacity stops at
// bufSize, so appending to a full buffer reallocates it instead of
// writing into the neighbouring buffer.
func TestPoolSlab(t *testing.T) {
	small := testing.AllocsPerRun(10, func() { NewPool(4, 64) })
	large := testing.AllocsPerRun(10, func() { NewPool(4096, 64) })
	if large != small {
		t.Fatalf("NewPool allocates %v objects for 4096 buffers vs %v for 4, want the same", large, small)
	}

	pool := NewPool(2, 64)
	a, b := pool.Get(64), pool.Get(64)
	if cap(a.Data) != 64 || cap(b.Data) != 64 {
		t.Fatalf("buffer caps %d, %d, want 64", cap(a.Data), cap(b.Data))
	}
	// The slab order of the two is an implementation detail: grow each
	// in turn and check the other is intact.
	for _, pair := range [][2]*Packet{{a, b}, {b, a}} {
		grown, other := pair[0], pair[1]
		for i := range other.Data {
			other.Data[i] = 0xbb
		}
		grown.Data = append(grown.Data, 0xaa)
		for i, v := range other.Data {
			if v != 0xbb {
				t.Fatalf("append to one buffer overwrote byte %d of its neighbour", i)
			}
		}
	}
}
