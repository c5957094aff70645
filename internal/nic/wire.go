// Package nic models the network interface hardware: receive rings that
// drop when full, transmit descriptor rings that must be reclaimed by
// driver code before they can be reused, per-direction interrupt-enable
// flags, interrupt batching, and an Ethernet wire with serialization at
// link rate. These are the structural elements the paper's pathologies
// depend on: early drop at the interface, transmit starvation via
// unreclaimed descriptors, and the interrupt-enable discipline of the
// modified kernel.
package nic

import (
	"livelock/internal/netstack"
	"livelock/internal/sim"
)

// Receiver consumes frames delivered by a wire.
type Receiver interface {
	DeliverFrame(p *netstack.Packet)
}

// Standard 10 Mb/s Ethernet, as in the paper's testbed.
const (
	EthernetBitRate = 10_000_000
	// MaxEthernetPPS is the maximum minimum-size frame rate:
	// (60+4 bytes + 8 preamble + 9.6µs IFG) at 10 Mb/s ≈ 14,880 pkts/s,
	// the figure quoted in §6.2.
	MaxEthernetPPS = 14880
)

// Wire is a point-to-point Ethernet segment. Frames are serialized at
// the link bit rate (including preamble, FCS and inter-frame gap) and
// delivered after a propagation delay. Transmit attempts while the
// carrier is busy defer, as CSMA senders do; only one transmitter per
// wire exists in all experiments, so collisions never occur.
type Wire struct {
	eng       *sim.Engine
	bitRate   int64
	propDelay sim.Duration
	dst       Receiver
	busyUntil sim.Time
	tap       func(*netstack.Packet)

	// Frames counts sender frames that finished serialization and
	// propagation. It is a transmit-side counter: a fault tap that later
	// drops, duplicates, or delays the frame does not change it.
	Frames uint64
	// Delivered counts frames actually handed to the receiver,
	// including tap-injected duplicates and excluding tap-consumed
	// frames. Without a tap, Delivered tracks Frames exactly. At any
	// event boundary Frames + TapInjected = Delivered + TapDropped +
	// frames the tap still holds (delayed in flight).
	Delivered uint64
	// TapDropped counts frames the tap consumed without delivery;
	// TapInjected counts extra frames the tap created (duplicates).
	TapDropped  uint64
	TapInjected uint64
}

// NewWire returns a wire to dst at bitRate bits/s with the given
// propagation delay.
func NewWire(eng *sim.Engine, dst Receiver, bitRate int64, propDelay sim.Duration) *Wire {
	if bitRate <= 0 {
		panic("nic: non-positive bit rate")
	}
	return &Wire{eng: eng, bitRate: bitRate, propDelay: propDelay, dst: dst}
}

// SerializationTime returns the time to put an n-byte frame on the wire,
// including preamble, FCS and inter-frame gap.
func (w *Wire) SerializationTime(n int) sim.Duration {
	bits := int64(n)*8 + netstack.EthOverheadBits
	return sim.Duration(bits * int64(sim.Second) / w.bitRate)
}

// Transmit starts sending p, deferring if the carrier is busy, and
// returns the instant transmission will complete. Delivery to the
// receiver occurs propagation-delay later.
func (w *Wire) Transmit(p *netstack.Packet) sim.Time {
	start := w.eng.Now()
	if w.busyUntil > start {
		start = w.busyUntil
	}
	done := start.Add(w.SerializationTime(p.Len()))
	w.busyUntil = done
	// Closure-free: delivery fires once per frame, making this (with
	// the generator's pacing event) the hottest scheduling site in the
	// simulation.
	w.eng.AtCall(done.Add(w.propDelay), wireArrive, w, p)
	return done
}

// wireArrive is the end-of-propagation callback (sim.Callback shape):
// the frame either enters the fault tap or is delivered to the
// receiving interface.
func wireArrive(a, b any) {
	w, p := a.(*Wire), b.(*netstack.Packet)
	w.Frames++
	if w.tap != nil {
		w.tap(p)
		return
	}
	w.Deliver(p)
}

// SetTap installs a delivery-time intercept (the fault plane's wire
// injector). The tap takes ownership of every frame that finishes
// propagation and must dispose of it exactly once: Deliver it (possibly
// from a later event, modeling extra delay), DeliverInjected a copy, or
// DropTapped it.
func (w *Wire) SetTap(fn func(*netstack.Packet)) { w.tap = fn }

// Deliver hands p to the receiving interface, counting the delivery.
func (w *Wire) Deliver(p *netstack.Packet) {
	w.Delivered++
	w.dst.DeliverFrame(p)
}

// DeliverInjected delivers a tap-created frame (e.g. a duplicate),
// counted separately from sender frames.
func (w *Wire) DeliverInjected(p *netstack.Packet) {
	w.TapInjected++
	w.Deliver(p)
}

// DropTapped records the tap consuming p without delivery and releases
// the frame.
func (w *Wire) DropTapped(p *netstack.Packet) {
	w.TapDropped++
	p.Release()
}
