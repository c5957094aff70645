// Package workload generates offered load: streams of real UDP/IPv4
// Ethernet frames paced by pluggable arrival processes. The paper's
// source host sent 10,000 4-byte UDP packets per trial at a roughly
// constant (but not precisely paced) rate; ConstantRate with a small
// jitter fraction reproduces that, and Poisson and on/off burst sources
// cover the transient-overload scenarios of §9.
package workload

import (
	"fmt"

	"livelock/internal/netstack"
	"livelock/internal/nic"
	"livelock/internal/sim"
	"livelock/internal/stats"
)

// Arrival is an arrival process: it yields successive inter-arrival
// times.
type Arrival interface {
	// Next returns the gap before the next packet. Returning a
	// non-positive duration sends back-to-back at wire speed.
	Next(rng *sim.RNG) sim.Duration
}

// ConstantRate emits packets at Rate packets/second with a uniform
// jitter of ±JitterFrac around the nominal interval ("this system does
// not generate a precisely paced stream of packets", §6.1). A
// non-positive rate emits nothing.
type ConstantRate struct {
	Rate       float64
	JitterFrac float64
}

// Next implements Arrival.
func (c ConstantRate) Next(rng *sim.RNG) sim.Duration {
	if c.Rate <= 0 {
		return idleGap
	}
	return rng.Jitter(sim.PerSecond(c.Rate), c.JitterFrac)
}

// idleGap is the polling interval used by arrival processes when their
// configured rate is non-positive: effectively "no traffic" while
// keeping the event loop finite.
const idleGap = sim.Duration(1 << 62)

// Poisson emits packets with exponentially distributed gaps at the given
// mean rate.
type Poisson struct {
	Rate float64
}

// Next implements Arrival.
func (p Poisson) Next(rng *sim.RNG) sim.Duration {
	if p.Rate <= 0 {
		return idleGap
	}
	return rng.Exp(sim.PerSecond(p.Rate))
}

// Burst is an on/off source: during a burst it emits at PeakRate for On,
// then stays silent for Off. This models the short-term bursty arrivals
// that cause transient overload (§9) and the burst-latency effect of
// §4.3.
type Burst struct {
	PeakRate float64
	On       sim.Duration
	Off      sim.Duration

	elapsed sim.Duration
}

// Next implements Arrival.
func (b *Burst) Next(rng *sim.RNG) sim.Duration {
	if b.PeakRate <= 0 {
		return idleGap
	}
	gap := sim.PerSecond(b.PeakRate)
	b.elapsed += gap
	if b.elapsed >= b.On {
		b.elapsed = 0
		return gap + b.Off
	}
	return gap
}

// Config describes the traffic a Generator offers.
type Config struct {
	Arrival Arrival
	// SrcMAC/DstMAC are the Ethernet addresses (DstMAC is the router's
	// input interface).
	SrcMAC, DstMAC netstack.MAC
	// SrcIP/DstIP address the UDP flow; DstIP is the phantom
	// destination beyond the router.
	SrcIP, DstIP netstack.Addr
	// SrcPort/DstPort are the UDP ports.
	SrcPort, DstPort uint16
	// SrcPortSpread, when > 1, cycles the source port over
	// [SrcPort, SrcPort+SrcPortSpread) one step per datagram, turning
	// the single flow into SrcPortSpread interleaved flows. The cycle is
	// counter-based — no RNG draws — so a spread of 0 or 1 leaves the
	// packet stream byte-identical to a fixed-port generator. SMP
	// configurations use this to give the NIC's RSS hash flows to
	// spread across queues.
	SrcPortSpread int
	// PayloadBytes is the UDP payload size (paper: 4 bytes, giving
	// minimum-size frames). The frame must fit one Ethernet frame.
	PayloadBytes int
	// MaxPackets stops the source after this many packets; zero means
	// unlimited.
	MaxPackets uint64
}

// Generator paces frames onto a wire toward the router's input NIC.
type Generator struct {
	eng  *sim.Engine
	rng  *sim.RNG
	wire *nic.Wire
	pool *netstack.Pool
	cfg  Config

	running bool
	nextID  uint64
	ipid    uint16
	tmpl    *netstack.UDPTemplate

	// Sent counts frames handed to the wire (the offered load);
	// PoolDrops counts sends skipped because the buffer pool was
	// exhausted.
	Sent      *stats.Counter
	PoolDrops *stats.Counter
}

// NewGenerator returns a stopped generator. It panics on a nil arrival
// process or a payload whose frame exceeds EthMaxFrame.
func NewGenerator(eng *sim.Engine, rng *sim.RNG, wire *nic.Wire, pool *netstack.Pool, cfg Config) *Generator {
	if cfg.Arrival == nil {
		panic("workload: nil arrival process")
	}
	// The flow's frame is built once; sendOne stamps each packet's IP ID
	// and source port into a copy.
	tmpl := netstack.NewUDPTemplate(netstack.FrameSpec{
		SrcMAC: cfg.SrcMAC, DstMAC: cfg.DstMAC,
		SrcIP: cfg.SrcIP, DstIP: cfg.DstIP,
		DstPort: cfg.DstPort,
		Payload: make([]byte, cfg.PayloadBytes),
		// The paper's packets carry 4 bytes of UDP data; checksum on.
		UDPChecksum: true,
	})
	if n := tmpl.Len(); n > netstack.EthMaxFrame {
		panic(fmt.Sprintf("workload: %d-byte payload gives a %d-byte frame, over EthMaxFrame %d",
			cfg.PayloadBytes, n, netstack.EthMaxFrame))
	}
	return &Generator{
		eng: eng, rng: rng, wire: wire, pool: pool, cfg: cfg,
		tmpl:      tmpl,
		Sent:      stats.NewCounter("gen.sent"),
		PoolDrops: stats.NewCounter("gen.pooldrops"),
	}
}

// Start begins generation. The first packet is sent after one
// inter-arrival gap.
func (g *Generator) Start() {
	if g.running {
		return
	}
	g.running = true
	g.scheduleNext()
}

// Stop halts generation after any packet already scheduled.
func (g *Generator) Stop() { g.running = false }

func (g *Generator) scheduleNext() {
	if !g.running {
		return
	}
	if g.cfg.MaxPackets > 0 && g.Sent.Value() >= g.cfg.MaxPackets {
		g.running = false
		return
	}
	gap := g.cfg.Arrival.Next(g.rng)
	if gap < 0 {
		gap = 0
	}
	// Closure-free: one pacing event per generated frame, the single
	// hottest scheduling site in any trial.
	g.eng.AfterCall(gap, generatorEmit, g, nil)
}

// generatorEmit is the pacing callback (sim.Callback shape).
func generatorEmit(a, _ any) { a.(*Generator).emit() }

func (g *Generator) emit() {
	if !g.running {
		return
	}
	g.sendOne()
	g.scheduleNext()
}

func (g *Generator) sendOne() {
	srcPort := g.cfg.SrcPort
	if g.cfg.SrcPortSpread > 1 {
		srcPort += uint16(g.Sent.Value() % uint64(g.cfg.SrcPortSpread))
	}
	ipid := g.ipid
	g.ipid++
	p := g.pool.Get(g.tmpl.Len())
	if p == nil {
		g.PoolDrops.Inc()
		return
	}
	g.tmpl.Stamp(p.Data, ipid, srcPort)
	g.nextID++
	p.ID = g.nextID
	p.Born = g.eng.Now()
	g.wire.Transmit(p)
	g.Sent.Inc()
}
