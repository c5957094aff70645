package kernel

import (
	"livelock/internal/core"
	"livelock/internal/cpu"
	"livelock/internal/metrics"
	"livelock/internal/netstack"
	"livelock/internal/prov"
	"livelock/internal/sim"
	"livelock/internal/stats"
)

// Monitor models passive network monitoring (§2: UNIX systems "with
// their network interfaces in promiscuous mode" gathering statistics),
// implemented the way BPF does it: the receive path taps each accepted
// packet by *copying* a capture record into a bounded per-filter buffer
// (the packet itself continues through the stack untouched), and a
// user-mode process drains the buffer.
//
// §6.6.1 suggests that "the same queue-state feedback technique could be
// applied to ... packet filter queues (for use in network monitoring)"
// but warns the policy "would be more complex, since it might be
// difficult to determine if input processing load was actually
// preventing progress". MonitorConfig.Feedback implements it anyway so
// that complexity is observable: feedback keeps the monitor lossless but
// throttles forwarding to the monitor's pace.
type Monitor struct {
	r    *Router
	cfg  MonitorConfig
	task *cpu.Task
	fb   *core.Feedback

	ring      []MonitorRecord
	head, cnt int
	scheduled bool
	// run and process are loop and processHead bound once.
	run, process func()

	// Captured counts records accepted into the buffer; Dropped counts
	// records lost to overflow; Processed counts records the monitoring
	// process consumed.
	Captured  *stats.Counter
	Dropped   *stats.Counter
	Processed *stats.Counter
	// Bytes totals the lengths of captured packets (the statistic a
	// monitor would gather).
	Bytes uint64
}

// MonitorRecord is one capture: BPF-style copied metadata, not a
// reference to the live packet buffer.
type MonitorRecord struct {
	At  sim.Time
	Pkt uint64
	Len int
}

// MonitorConfig configures the tap.
type MonitorConfig struct {
	// QueueRecords sizes the capture buffer (default 256).
	QueueRecords int
	// ProcessCost is the user-mode work per record (read syscall share
	// plus analysis).
	ProcessCost sim.Duration
	// Prio is the monitoring process priority (default 4, below
	// screend).
	Prio int
	// Feedback applies §6.6.1 queue-state feedback to the capture
	// buffer.
	Feedback bool
}

// StartMonitor attaches a promiscuous monitor to the router's receive
// path. Only one monitor is supported.
func (r *Router) StartMonitor(cfg MonitorConfig) *Monitor {
	if r.monitor != nil {
		panic("kernel: monitor already attached")
	}
	if cfg.QueueRecords <= 0 {
		cfg.QueueRecords = 256
	}
	if cfg.Prio == 0 {
		cfg.Prio = 4
	}
	if cfg.ProcessCost == 0 {
		cfg.ProcessCost = 50 * sim.Microsecond
	}
	m := &Monitor{
		r:         r,
		cfg:       cfg,
		ring:      make([]MonitorRecord, cfg.QueueRecords),
		Captured:  stats.NewCounter("monitor.captured"),
		Dropped:   stats.NewCounter("monitor.dropped"),
		Processed: stats.NewCounter("monitor.processed"),
	}
	m.task = r.CPU.NewTask("monitor", cpu.IPLThread, cfg.Prio, cpu.ClassUser)
	m.task.SetCenter(prov.CenterUserProc)
	m.run = m.loop
	m.process = m.processHead
	if cfg.Feedback && r.polled != nil {
		m.fb = r.polled.attachQueueFeedback(nil, "monitorq-feedback", 0, 0)
	}
	r.monitor = m
	return m
}

// registerMonitorMetrics registers the capture-tap columns. A monitor
// is attached after router construction (StartMonitor), so these read
// through r.monitor at sample time and report zero until — and unless —
// one exists.
func (r *Router) registerMonitorMetrics(reg *metrics.Registry) {
	counter := func(read func(*Monitor) uint64) func() uint64 {
		return func() uint64 {
			if r.monitor == nil {
				return 0
			}
			return read(r.monitor)
		}
	}
	reg.CounterFunc("monitor.captured", counter(func(m *Monitor) uint64 { return m.Captured.Value() }))
	reg.CounterFunc("monitor.dropped", counter(func(m *Monitor) uint64 { return m.Dropped.Value() }))
	reg.CounterFunc("monitor.processed", counter(func(m *Monitor) uint64 { return m.Processed.Value() }))
	reg.Gauge("monitor.backlog", func() float64 {
		if r.monitor == nil {
			return 0
		}
		return float64(r.monitor.cnt)
	})
}

// LossRate returns the fraction of tapped packets lost to buffer
// overflow.
func (m *Monitor) LossRate() float64 {
	total := m.Captured.Value() + m.Dropped.Value()
	if total == 0 {
		return 0
	}
	return float64(m.Dropped.Value()) / float64(total)
}

// tap is called from the receive path for every packet accepted from a
// ring; the copy cost is folded into the receive path's per-packet
// cost, as bpf_tap runs inline in the driver.
func (m *Monitor) tap(p *netstack.Packet) {
	if m.cnt == len(m.ring) {
		m.Dropped.Inc()
		m.notifyPressure()
		return
	}
	m.ring[(m.head+m.cnt)%len(m.ring)] = MonitorRecord{
		At: m.r.Eng.Now(), Pkt: p.ID, Len: p.Len(),
	}
	m.cnt++
	m.Captured.Inc()
	m.notifyPressure()
	m.wakeup()
}

// notifyPressure drives the optional queue-state feedback.
func (m *Monitor) notifyPressure() {
	if m.fb != nil && m.cnt >= len(m.ring)*3/4 {
		m.fb.QueueHigh()
	}
}

func (m *Monitor) wakeup() {
	if m.scheduled {
		return
	}
	m.scheduled = true
	m.task.Post(m.r.Cfg.Costs.ScreendWakeup, m.run)
}

func (m *Monitor) loop() {
	if m.cnt == 0 {
		m.scheduled = false
		return
	}
	m.task.Post(m.cfg.ProcessCost, m.process)
}

// processHead consumes the oldest capture record.
func (m *Monitor) processHead() {
	if m.cnt == 0 {
		m.scheduled = false
		return
	}
	rec := m.ring[m.head]
	m.head = (m.head + 1) % len(m.ring)
	m.cnt--
	m.Bytes += uint64(rec.Len)
	m.Processed.Inc()
	m.fb.Progress()
	if m.fb != nil && m.cnt <= len(m.ring)/4 {
		m.fb.QueueLow()
	}
	m.loop()
}

// tapMonitor is the receive-path hook.
func (r *Router) tapMonitor(p *netstack.Packet) {
	if r.monitor != nil {
		r.monitor.tap(p)
	}
}
