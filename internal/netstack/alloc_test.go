package netstack

import (
	"bytes"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"testing"
)

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

// unusedPool keeps TestPoolGrowth's NewPool on the heap.
var unusedPool *Pool

// The pool grows on demand: a never-used pool holds no buffer, growth
// to Total takes O(log Total) allocations, exhaustion fails exactly at
// Total, and each buffer's capacity stops at bufSize, so appending to a
// full buffer reallocates it instead of writing into the neighbouring
// buffer.
func TestPoolGrowth(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if allocs := testing.AllocsPerRun(100, func() { unusedPool = NewPool(4096, EthMaxFrame) }); allocs != 1 {
		t.Fatalf("NewPool allocates %v objects, want 1 (the Pool itself)", allocs)
	}
	runtime.ReadMemStats(&after)
	if perPool := (after.TotalAlloc - before.TotalAlloc) / 101; perPool > 1024 {
		t.Fatalf("an unused NewPool(4096, %d) costs %d bytes, want no buffer bytes", EthMaxFrame, perPool)
	}

	const total = 4096
	fill := func() *Pool {
		pool := NewPool(total, 64)
		for i := 0; i < total; i++ {
			if pool.Get(64) == nil {
				t.Fatalf("Get %d of %d failed", i+1, total)
			}
		}
		return pool
	}
	// Three allocations for a first chunk (the Pool, the free list, one
	// chunk) and two per doubling after it: 2·log2(Total) bounds them.
	if allocs, limit := testing.AllocsPerRun(10, func() { fill() }), 2*bits.Len(total); allocs > float64(limit) {
		t.Fatalf("growing to %d buffers takes %v allocations, want at most %d", total, allocs, limit)
	}
	pool := fill()
	if pool.Available() != 0 || pool.Fails != 0 {
		t.Fatalf("full pool: Available %d, Fails %d, want 0, 0", pool.Available(), pool.Fails)
	}
	if pool.Get(64) != nil || pool.Fails != 1 {
		t.Fatalf("Get past Total succeeded or Fails = %d, want nil and 1", pool.Fails)
	}

	small := NewPool(2, 64)
	a, b := small.Get(64), small.Get(64)
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

// Releasing one packet twice panics wherever the pool stands, not only
// when the second release would overfill it: otherwise the packet sits
// on the free list twice and two later Gets alias one buffer.
func TestPoolDoubleReleasePanics(t *testing.T) {
	pool := NewPool(8, 64)
	a := pool.Get(64)
	pool.Get(64)
	a.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release into a half-empty pool did not panic")
		}
	}()
	a.Release()
}

// eagerPool is the reference the on-demand pool must match: every
// buffer allocated up front on one slab, handed out LIFO.
type eagerPool struct {
	free            [][]byte
	bufSize         int
	fails, oversize uint64
}

func newEagerPool(n, bufSize int) *eagerPool {
	e := &eagerPool{bufSize: bufSize}
	slab := make([]byte, n*bufSize)
	for i := 0; i < n; i++ {
		e.free = append(e.free, slab[i*bufSize:i*bufSize:(i+1)*bufSize])
	}
	return e
}

func (e *eagerPool) get(n int) []byte {
	if n > e.bufSize {
		e.oversize++
		return nil
	}
	if len(e.free) == 0 {
		e.fails++
		return nil
	}
	b := e.free[len(e.free)-1]
	e.free = e.free[:len(e.free)-1]
	return b[:n]
}

func (e *eagerPool) put(b []byte) { e.free = append(e.free, b[:0]) }

// A seeded random run of Gets, writes, Releases and oversize requests
// sees the same pool through the on-demand allocator as through the
// eager reference: the same counters at every step, and the same bytes
// from every Get — zeros from a fresh buffer, the last-written bytes
// from a reused one. The run crosses every growth step with released
// buffers on the free list, and fills the pool to exhaustion several
// times.
func TestPoolMatchesEagerReference(t *testing.T) {
	const total, bufSize = 300, 64
	rng := rand.New(rand.NewPCG(1, 2))
	pool, ref := NewPool(total, bufSize), newEagerPool(total, bufSize)
	type held struct {
		pkt *Packet
		ref []byte
	}
	var out []held
	exhausted := 0
	for step := 0; step < 20000; step++ {
		// Phases of 1,000 steps cycle through a slow climb (Releases
		// interleave with every growth), a rush to exhaustion and a
		// drain, so the run swings between an empty pool and a full one.
		getBias := [...]float64{0.6, 0.9, 0.2}[step/1000%3]
		switch r := rng.Float64(); {
		case r < 0.02:
			n := bufSize + 1 + rng.IntN(8)
			if pool.Get(n) != nil || ref.get(n) != nil {
				t.Fatalf("step %d: oversize Get(%d) succeeded", step, n)
			}
		case r < getBias || len(out) == 0:
			n := rng.IntN(bufSize + 1)
			pkt, b := pool.Get(n), ref.get(n)
			if (pkt == nil) != (b == nil) {
				t.Fatalf("step %d: Get(%d) = %v, reference %v", step, n, pkt != nil, b != nil)
			}
			if pkt == nil {
				exhausted++
				break
			}
			if !bytes.Equal(pkt.Data, b) {
				t.Fatalf("step %d: Get(%d) bytes % x, reference % x", step, n, pkt.Data, b)
			}
			for i := range b {
				v := byte(rng.Uint32())
				pkt.Data[i], b[i] = v, v
			}
			out = append(out, held{pkt, b})
		default:
			i := rng.IntN(len(out))
			h := out[i]
			out[i] = out[len(out)-1]
			out = out[:len(out)-1]
			h.pkt.Release()
			ref.put(h.ref)
		}
		if pool.Available() != len(ref.free) || pool.Fails != ref.fails || pool.Oversize != ref.oversize {
			t.Fatalf("step %d: Available/Fails/Oversize %d/%d/%d, reference %d/%d/%d", step,
				pool.Available(), pool.Fails, pool.Oversize, len(ref.free), ref.fails, ref.oversize)
		}
	}
	if exhausted == 0 {
		t.Fatal("the run never exhausted the pool")
	}
}
