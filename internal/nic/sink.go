package nic

import (
	"livelock/internal/metrics"
	"livelock/internal/netstack"
	"livelock/internal/sim"
	"livelock/internal/stats"
)

// Sink is a wire endpoint that plays the destination Ethernet segment:
// it validates and counts every delivered frame and records end-to-end
// latency. The paper's destination host "did not exist" — the router was
// fooled with a phantom ARP entry — so the sink is exactly a network
// analyzer on the stub Ethernet (§6.1).
type Sink struct {
	eng *sim.Engine

	// Delivered counts frames received.
	Delivered *stats.Counter
	// Malformed counts frames that failed validation; a correct router
	// must never produce one.
	Malformed *stats.Counter
	// ICMP counts valid ICMP frames among the deliveries.
	ICMP *stats.Counter
	// Latency records wire-to-wire latency (generation to delivery).
	Latency *stats.Histogram
	// LastTTL records the TTL of the most recent valid frame (a
	// forwarded frame must arrive with the generator's TTL minus one).
	LastTTL uint8

	// Validate enables full parse/checksum validation of every frame.
	Validate bool

	// OnDeliver, if non-nil, observes each valid delivery before the
	// frame is released (for tracing).
	OnDeliver func(*netstack.Packet)
	// OnMalformed, if non-nil, observes each frame that failed
	// validation before it is released, so provenance accounting can
	// close out records for corrupted frames the router forwarded.
	OnMalformed func(*netstack.Packet)
}

// NewSink returns a validating sink.
func NewSink(eng *sim.Engine, name string) *Sink {
	return &Sink{
		eng:       eng,
		Delivered: stats.NewCounter(name + ".delivered"),
		Malformed: stats.NewCounter(name + ".malformed"),
		ICMP:      stats.NewCounter(name + ".icmp"),
		Latency:   stats.NewHistogram(name + ".latency"),
		Validate:  true,
	}
}

// RegisterMetrics registers the sink's delivery counters and its
// end-to-end latency histogram. The per-interval delta of "delivered"
// is the timeline's output-rate curve; it collapsing to zero while
// input counters keep climbing is the definition of livelock.
func (s *Sink) RegisterMetrics(reg *metrics.Registry) error {
	if err := reg.Counter("delivered", s.Delivered); err != nil {
		return err
	}
	if err := reg.Counter("sink.malformed", s.Malformed); err != nil {
		return err
	}
	return reg.Histogram("latency", s.Latency)
}

// DeliverFrame implements Receiver.
func (s *Sink) DeliverFrame(p *netstack.Packet) {
	if s.Validate {
		if !s.validate(p) {
			s.Malformed.Inc()
			if s.OnMalformed != nil {
				s.OnMalformed(p)
			}
			p.Release()
			return
		}
	}
	s.Delivered.Inc()
	s.Latency.Observe(s.eng.Now().Sub(p.Born))
	if s.OnDeliver != nil {
		s.OnDeliver(p)
	}
	p.Release()
}

// validate checks the frame by protocol: UDP, TCP and ICMP frames are
// fully parsed and checksummed. No simulated host fragments, so a
// fragment (only ever injected) fails validation: a lone fragment's
// transport header cannot be checked without reassembly.
func (s *Sink) validate(p *netstack.Packet) bool {
	frame := p.Data
	if len(frame) < netstack.EthHeaderLen+netstack.IPv4HeaderLen || netstack.IsFragment(frame) {
		return false
	}
	switch frame[netstack.EthHeaderLen+9] {
	case netstack.ProtoICMP:
		_, ip, _, _, err := netstack.ParseICMPFrame(frame)
		if err != nil {
			return false
		}
		s.LastTTL = ip.TTL
		s.ICMP.Inc()
		return true
	case netstack.ProtoTCP:
		_, ip, _, _, err := netstack.ParseTCPFrame(frame)
		if err != nil {
			return false
		}
		s.LastTTL = ip.TTL
		return true
	default:
		_, ip, _, _, err := netstack.ParseUDPFrame(frame)
		if err != nil {
			return false
		}
		s.LastTTL = ip.TTL
		return true
	}
}

// CountingReceiver is a minimal Receiver that counts and releases
// frames, for tests and generator-side loopback wires.
type CountingReceiver struct {
	Count uint64
}

// DeliverFrame implements Receiver.
func (c *CountingReceiver) DeliverFrame(p *netstack.Packet) {
	c.Count++
	p.Release()
}
