// Package netstack implements the protocol substrate the router runs on:
// Ethernet, IPv4 and UDP header encoding/decoding on real bytes, Internet
// checksums (RFC 1071) with incremental update (RFC 1624), an ARP table,
// and a longest-prefix-match routing table.
//
// The simulation charges CPU cost for this work via calibrated constants,
// but the work itself is genuine: headers are parsed from and written to
// wire-format byte slices, TTLs are decremented, and checksums are
// maintained, so the packet contents observed at the sink are exactly
// what a real router would emit.
package netstack

import (
	"fmt"

	"livelock/internal/prov"
	"livelock/internal/sim"
)

// Packet is a frame traversing the simulated network, carrying its
// wire-format bytes plus simulation metadata used for measurement.
type Packet struct {
	// Data is the full Ethernet frame in wire format.
	Data []byte

	// ID is a unique, monotonically increasing identifier assigned by
	// the generator, used for tracing and conservation checks.
	ID uint64

	// Born is the instant the packet was handed to the input wire.
	Born sim.Time

	// EnqueuedNIC is the instant the packet entered the receiving NIC's
	// ring (start of host-visible latency).
	EnqueuedNIC sim.Time

	// Prov names this packet's provenance record in the cycle-attribution
	// profiler. The zero handle means "untracked" (profiler disabled, or
	// a router-originated frame) and makes every profiler op a no-op.
	Prov prov.Handle

	pool *Pool
	// free is set while the packet sits on its pool's free list, so a
	// second Release panics instead of aliasing one buffer to two Gets.
	free bool
}

// Len returns the frame length in bytes.
func (p *Packet) Len() int { return len(p.Data) }

// Release returns the packet's buffer to its pool, if it came from one.
// After Release the packet must not be used.
func (p *Packet) Release() {
	if p.pool != nil {
		p.pool.put(p)
	}
}

// String summarizes the packet for traces.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt#%d len=%d", p.ID, len(p.Data))
}

// Pool is a fixed-capacity packet buffer allocator, the moral equivalent
// of the 4.2BSD mbuf pool: when it is exhausted, allocation fails and the
// caller must drop. All buffers have the same capacity.
type Pool struct {
	free    []*Packet
	bufSize int
	total   int
	// grown counts the buffers allocated so far; the other total−grown
	// exist only as capacity until a Get finds the free list empty.
	grown int
	// Fails counts allocation failures caused by buffer exhaustion —
	// the pool genuinely had no free buffer, the paper's mbuf-starvation
	// drop.
	Fails uint64
	// Oversize counts requests larger than the pool's buffer size. That
	// is a caller bug, not exhaustion, and is tracked separately so
	// conservation accounting does not conflate the two failure modes.
	Oversize uint64
}

// poolFirstChunk is the number of buffers a pool's first growth
// allocates; each later growth doubles the buffers allocated so far.
const poolFirstChunk = 64

// NewPool returns a pool of n buffers of bufSize bytes each. n <= 0 or
// bufSize <= 0 panics. Buffers are allocated on demand: a Get that
// finds the free list empty allocates a chunk of packets and buffers
// (two slabs, one []Packet and one []byte), poolFirstChunk at first and
// then doubling, never past n in all. A pool therefore costs memory for
// the most buffers it has held at once, and reaches n in O(log n)
// allocations. Each buffer is capped at bufSize, so an append past it
// reallocates instead of running into its neighbour.
//
// Growth does not change what Get hands out. The free list is LIFO and
// a fresh (zeroed) buffer is handed out only when every buffer already
// allocated is out, exactly as from one eager slab: the bytes each Get
// returns, and the Fails and Oversize counts, are the same.
func NewPool(n, bufSize int) *Pool {
	if n <= 0 || bufSize <= 0 {
		panic("netstack: invalid pool dimensions")
	}
	return &Pool{bufSize: bufSize, total: n}
}

// grow allocates the next chunk of buffers onto the empty free list.
func (p *Pool) grow() {
	chunk := min(max(p.grown, poolFirstChunk), p.total-p.grown)
	p.grown += chunk
	if p.free == nil {
		// Sized for the whole pool once, so neither growth nor put
		// ever reallocates it.
		p.free = make([]*Packet, 0, p.total)
	}
	pkts := make([]Packet, chunk)
	bufs := make([]byte, chunk*p.bufSize)
	for i := range pkts {
		off := i * p.bufSize
		pkts[i] = Packet{Data: bufs[off : off : off+p.bufSize], pool: p, free: true}
		p.free = append(p.free, &pkts[i])
	}
}

// Get allocates a packet buffer sized to length n. It returns nil if the
// pool is exhausted or n exceeds the pool's buffer size.
func (p *Pool) Get(n int) *Packet {
	if n > p.bufSize {
		p.Oversize++
		return nil
	}
	if len(p.free) == 0 {
		if p.grown == p.total {
			p.Fails++
			return nil
		}
		p.grow()
	}
	pkt := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	pkt.free = false
	pkt.Data = pkt.Data[:n]
	return pkt
}

func (p *Pool) put(pkt *Packet) {
	if pkt.free {
		panic("netstack: double release of a pool packet")
	}
	pkt.free = true
	pkt.Data = pkt.Data[:0]
	pkt.ID = 0
	pkt.Prov = prov.Handle{}
	p.free = append(p.free, pkt)
}

// Available returns the number of buffers a Get can still hand out:
// the free ones plus those not yet allocated.
func (p *Pool) Available() int { return len(p.free) + p.total - p.grown }

// Total returns the pool capacity in buffers.
func (p *Pool) Total() int { return p.total }
