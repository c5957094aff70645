package kernel

import (
	"livelock/internal/netstack"
	"livelock/internal/sim"
	"livelock/internal/stats"
)

// ClientConfig describes a flow-controlled RPC client: at most Window
// requests outstanding, with a retransmission timeout. §1 of the paper
// contrasts exactly this behaviour with the datagram floods that cause
// livelock: "unlike traditional network applications (Telnet, FTP,
// electronic mail), they are not flow-controlled ... once the event
// rate saturates the system, without a negative feedback loop to
// control the sources, there is no way to gracefully shed load." A
// closed-loop client *is* that negative feedback loop: when the server
// slows, the client slows.
type ClientConfig struct {
	// Port is the server's UDP port on the router host.
	Port uint16
	// Window is the maximum outstanding requests (default 4).
	Window int
	// Timeout triggers retransmission of the oldest outstanding
	// request (default 100 ms).
	Timeout sim.Duration
	// PayloadBytes is the request payload size (default 4).
	PayloadBytes int
	// MaxRequests stops the client after this many completions; zero
	// means unlimited.
	MaxRequests uint64
}

// Client is a closed-loop request/response client on an input network.
type Client struct {
	r     *Router
	input int
	cfg   ClientConfig

	outstanding int
	ipid        uint16
	nextID      uint64
	timer       sim.Timer
	oldestSent  []sim.Time // FIFO of outstanding send times

	// Sent counts request transmissions (including retransmissions);
	// Completed counts acknowledged requests; Retransmits counts
	// timeout-driven resends.
	Sent        *stats.Counter
	Completed   *stats.Counter
	Retransmits *stats.Counter
	// RTT records request→reply round-trip times.
	RTT *stats.Histogram
}

// AttachClient binds a closed-loop client to input network i, consuming
// reply frames from that network's reverse sink.
func (r *Router) AttachClient(i int, cfg ClientConfig) *Client {
	if cfg.Window <= 0 {
		cfg.Window = 4
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 100 * sim.Millisecond
	}
	if cfg.PayloadBytes <= 0 {
		cfg.PayloadBytes = 4
	}
	c := &Client{
		r: r, input: i, cfg: cfg,
		Sent:        stats.NewCounter("client.sent"),
		Completed:   stats.NewCounter("client.completed"),
		Retransmits: stats.NewCounter("client.retransmits"),
		RTT:         stats.NewHistogram("client.rtt"),
	}
	c.timer.Init(clientTimeout, c, nil)
	// Chain onto the reverse sink's delivery hook (tracing may already
	// be attached).
	rev := r.RevSinks[i]
	prev := rev.OnDeliver
	rev.OnDeliver = func(p *netstack.Packet) {
		if prev != nil {
			prev(p)
		}
		c.onReply(p)
	}
	r.clients = append(r.clients, c)
	return c
}

// Start fills the window.
func (c *Client) Start() {
	for c.outstanding < c.cfg.Window && !c.done() {
		c.sendRequest()
	}
}

func (c *Client) done() bool {
	return c.cfg.MaxRequests > 0 && c.Completed.Value() >= c.cfg.MaxRequests
}

func (c *Client) sendRequest() {
	spec := netstack.FrameSpec{
		SrcMAC: netstack.MAC{0xbb, 0, 0, 0, 0, byte(c.input + 1)},
		DstMAC: c.r.Ins[c.input].MAC(),
		SrcIP:  InputSourceIP(c.input), DstIP: RouterIP(c.input),
		SrcPort: 6000, DstPort: c.cfg.Port,
		IPID:        c.ipid,
		Payload:     make([]byte, c.cfg.PayloadBytes),
		UDPChecksum: true,
	}
	c.ipid++
	p := c.r.Pool.Get(spec.FrameLen())
	if p == nil {
		return // pool pressure; the timeout will retry
	}
	if _, err := netstack.BuildUDPFrame(p.Data, &spec); err != nil {
		panic(err)
	}
	c.nextID++
	p.ID = c.nextID | 1<<62
	p.Born = c.r.Eng.Now()
	c.r.SourceWires[c.input].Transmit(p)
	c.Sent.Inc()
	c.outstanding++
	c.oldestSent = append(c.oldestSent, c.r.Eng.Now())
	c.armTimer()
}

func (c *Client) armTimer() {
	if c.timer.Armed() || c.outstanding == 0 {
		return
	}
	c.r.Eng.ArmAfter(&c.timer, c.cfg.Timeout)
}

// clientTimeout is the retransmission callback (sim.Callback shape).
func clientTimeout(a, _ any) { a.(*Client).onTimeout() }

// onReply completes the oldest outstanding request. Replies carry no
// sequence echo, so FIFO matching is used; with a single server and
// in-order queues this is exact.
func (c *Client) onReply(p *netstack.Packet) {
	// Only UDP replies to our port complete requests (ICMP and other
	// traffic on the reverse wire is ignored).
	if len(p.Data) < netstack.EthHeaderLen+netstack.IPv4HeaderLen+netstack.UDPHeaderLen {
		return
	}
	if p.Data[netstack.EthHeaderLen+9] != netstack.ProtoUDP {
		return
	}
	var udp netstack.UDPHeader
	if err := udp.Unmarshal(p.Data[netstack.EthHeaderLen+netstack.IPv4HeaderLen:]); err != nil {
		return
	}
	if udp.DstPort != 6000 {
		return
	}
	if c.outstanding == 0 {
		return // late reply to a timed-out request
	}
	sent := c.oldestSent[0]
	c.oldestSent = c.oldestSent[1:]
	c.outstanding--
	c.Completed.Inc()
	c.RTT.Observe(c.r.Eng.Now().Sub(sent))
	c.r.Eng.Disarm(&c.timer)
	c.armTimer()
	for c.outstanding < c.cfg.Window && !c.done() {
		c.sendRequest()
	}
}

// onTimeout retransmits the oldest outstanding request.
func (c *Client) onTimeout() {
	if c.outstanding == 0 {
		return
	}
	// Drop the oldest outstanding request and resend it.
	c.Retransmits.Inc()
	c.outstanding-- // sendRequest re-increments
	c.oldestSent = c.oldestSent[1:]
	c.sendRequest()
}
