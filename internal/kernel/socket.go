package kernel

import (
	"fmt"

	"livelock/internal/core"
	"livelock/internal/cpu"
	"livelock/internal/netstack"
	"livelock/internal/prov"
	"livelock/internal/queue"
	"livelock/internal/sim"
	"livelock/internal/stats"
)

// Socket is a UDP endpoint on the router itself: locally-addressed
// datagrams are queued in a bounded socket buffer for an application to
// read. It is the end-system delivery path the paper's motivating
// applications (NFS-style RPC servers, §2) depend on — under receive
// livelock, packets die before ever reaching it.
type Socket struct {
	r    *Router
	port uint16
	// buf is filled by ip_input and drained by the application's recv
	// syscall; on SMP both hold netLock.
	//lkvet:guards netLock
	buf *queue.Queue
	fb  *core.Feedback // the buffer's queue-state feedback; nil without it
	app *AppServer

	// Received counts datagrams accepted into the socket buffer.
	Received *stats.Counter
}

// OpenSocket binds a UDP port with the given receive-buffer capacity
// (in packets). It panics if the port is already bound. Runs before the
// engine: fully serialized.
//
//lkvet:requires boot
func (r *Router) OpenSocket(port uint16, bufPackets int) *Socket {
	if _, dup := r.sockets[port]; dup {
		panic("kernel: port already bound")
	}
	if bufPackets <= 0 {
		bufPackets = 64
	}
	s := &Socket{
		r:        r,
		port:     port,
		buf:      queue.New("sockbuf", bufPackets, nil),
		Received: stats.NewCounter("sock.received"),
	}
	s.buf.Reason = prov.ReasonSockBufFull
	r.ld.Guard(s.buf, r.netLock, fmt.Sprintf("sockbuf %d", port))
	r.sockets[port] = s
	return s
}

// Drops returns datagrams dropped because the socket buffer was full.
// An observer API, like Router.Account.
//
//lkvet:requires boot
func (s *Socket) Drops() uint64 { return s.buf.Drops.Value() }

// deliver is ip_input's hand-off into the socket buffer; the caller has
// charged the CPU cost.
//
//lkvet:requires netLock
func (s *Socket) deliver(p *netstack.Packet) {
	s.r.ld.Check(s.buf)
	ok := s.buf.Enqueue(p)
	if !ok {
		s.r.drop(p, prov.ReasonSockBufFull)
	} else {
		s.Received.Inc()
		s.r.observe(p, prov.StageSockBufAccept, prov.ReasonNone)
	}
	// Re-assert feedback in case a timeout re-opened the gate while the
	// buffer sits above its high watermark.
	s.fb.Pressure()
	if ok && s.app != nil {
		s.app.wakeup()
	}
}

// AppConfig describes a server application bound to a socket: an
// RPC-style request consumer, optionally sending one reply per request
// (the NFS-server shape from §2 and §4.3).
type AppConfig struct {
	// Port is the UDP port to bind.
	Port uint16
	// BufPackets sizes the socket receive buffer (default 64).
	BufPackets int
	// RecvCost is the per-request receive system call.
	RecvCost sim.Duration
	// ProcessCost is the application work per request (e.g. a cache
	// lookup or simulated disk access).
	ProcessCost sim.Duration
	// ReplyBytes, if > 0, makes the server send a UDP reply of that
	// payload size per request.
	ReplyBytes int
	// ReplyCost is the send system call (including the kernel-side
	// ip_output), charged when a reply is sent.
	ReplyCost sim.Duration
	// Prio is the process scheduling priority (default 5, like
	// screend).
	Prio int
	// Feedback applies §6.6.1 queue-state feedback to the socket
	// buffer (polled kernel only): when it fills past its high
	// watermark, input processing is inhibited until the application
	// drains it, moving overload drops back to the interface ring.
	Feedback bool
}

// AppServer is a user-mode request/response server driven by a socket.
// On SMP the recv syscall's dequeue and the send syscall's output path
// run under r.netLock, their holds carved out of the syscall costs, so
// per-request totals match the uniprocessor exactly.
type AppServer struct {
	r    *Router
	cfg  AppConfig
	task *cpu.Task
	sock *Socket

	scheduled bool
	wakeCost  sim.Duration
	// run, serve and send are loop, serveHead and sendReply bound once,
	// so the per-request items allocate nothing.
	run, serve, send func()
	// replyTo is the response serveHead hands to the send syscall's
	// item: the request's addresses and ports swapped, over payload
	// (ReplyBytes of zeros, allocated once). replying marks it in hand.
	replyTo  netstack.FrameSpec
	replying bool
	payload  []byte

	// Served counts requests fully processed; Replied counts replies
	// handed to the output path.
	Served  *stats.Counter
	Replied *stats.Counter
}

// StartApp binds a socket and attaches a server application to it.
// Runs before the engine: fully serialized.
//
//lkvet:requires boot
func (r *Router) StartApp(cfg AppConfig) *AppServer {
	if cfg.Prio == 0 {
		cfg.Prio = 5
	}
	a := &AppServer{
		r:        r,
		cfg:      cfg,
		sock:     r.OpenSocket(cfg.Port, cfg.BufPackets),
		wakeCost: r.Cfg.Costs.ScreendWakeup,
		Served:   stats.NewCounter("app.served"),
		Replied:  stats.NewCounter("app.replied"),
	}
	a.sock.app = a
	a.task = r.CPU.NewTask("app", cpu.IPLThread, cfg.Prio, cpu.ClassUser)
	a.task.SetCenter(prov.CenterUserProc)
	a.run = a.loop
	a.serve = a.serveHead
	a.send = a.sendReply
	a.payload = make([]byte, max(cfg.ReplyBytes, 0))
	if q := a.sock.buf; cfg.Feedback && r.polled != nil {
		// Watermarks at 3/4 and 1/4 of the buffer, kept apart.
		low := max(q.Cap()/4, 1)
		a.sock.fb = r.polled.attachQueueFeedback(q, fmt.Sprintf("sockbuf-%d-feedback", cfg.Port),
			max(q.Cap()*3/4, low+1), low)
	}
	return a
}

// Socket returns the server's socket.
func (a *AppServer) Socket() *Socket { return a.sock }

func (a *AppServer) wakeup() {
	if a.scheduled {
		return
	}
	a.scheduled = true
	a.task.Post(a.wakeCost, a.run)
}

func (a *AppServer) loop() {
	//lkvet:allow lockguard racy emptiness peek; a stale result only costs one idle reschedule round
	if a.sock.buf.Empty() {
		a.scheduled = false
		return
	}
	a.task.PostLockedTail(a.r.netLock, a.cfg.RecvCost+a.cfg.ProcessCost, a.r.Cfg.Costs.LockOp,
		prov.CenterUserProc, a.serve)
}

// serveHead is the end of one request: the recv syscall returns and
// the application processes the request, replying if configured.
//
//lkvet:requires netLock
func (a *AppServer) serveHead() {
	a.r.ld.Check(a.sock.buf)
	p := a.sock.buf.Dequeue()
	if p == nil {
		a.scheduled = false
		return
	}
	a.sock.fb.Progress()
	a.Served.Inc()
	if a.cfg.ReplyBytes > 0 {
		a.reply(p)
		return
	}
	p.Release()
	a.loop()
}

// reply addresses a real UDP response to req (addresses and ports
// swapped) and posts the send syscall that transmits it.
func (a *AppServer) reply(req *netstack.Packet) {
	eth, ip, udp, _, err := netstack.ParseUDPFrame(req.Data)
	req.Release()
	if err != nil {
		a.loop()
		return
	}
	if a.replying {
		panic("kernel: app reply posted while the previous reply is still in hand")
	}
	a.replying = true
	a.replyTo = netstack.FrameSpec{
		SrcMAC: eth.Dst, DstMAC: eth.Src,
		SrcIP: ip.Dst, DstIP: ip.Src,
		SrcPort: udp.DstPort, DstPort: udp.SrcPort,
		Payload:     a.payload,
		UDPChecksum: true,
	}
	a.task.PostLockedTail(a.r.netLock, a.cfg.ReplyCost, a.r.Cfg.Costs.LockOp, prov.CenterUserProc, a.send)
}

// sendReply is the end of the send syscall: its kernel half builds the
// reply and queues it on the output path.
//
//lkvet:requires netLock
func (a *AppServer) sendReply() {
	spec := &a.replyTo
	a.replying = false
	if p := a.r.Pool.Get(spec.FrameLen()); p != nil {
		if _, err := netstack.BuildUDPFrame(p.Data, spec); err != nil {
			panic(err)
		}
		p.ID = a.r.ownID()
		p.Born = a.r.Eng.Now()
		if a.r.transmitOwn(p, spec.DstIP) {
			a.Replied.Inc()
		}
	}
	a.loop()
}
