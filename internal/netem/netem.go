// Package netem emulates the physical network of the testbed: NIC ports,
// directly wired point-to-point links, and (for ablation experiments)
// store-and-forward switches.
//
// Traffic is modelled in batches rather than individual frames so that a
// multi-megapacket-per-second sweep stays cheap to simulate: a Batch carries
// one representative frame plus a count. Links apply a fluid model — each
// direction owns a virtual transmitter that is busy for the exact
// serialization time of every accepted packet, with a bounded backlog that
// tail-drops overflow. This reproduces the two behaviours the paper's case
// study depends on: a hard line-rate ceiling (10 Gbit/s caps 1500 B frames at
// ~0.81 Mpps) and queueing delay growth as load approaches saturation.
package netem

import (
	"fmt"
	"math"
	"sync"

	"pos/internal/packet"
	"pos/internal/sim"
)

// Batch is a group of identical packets travelling together through the
// emulated network during one generator tick.
type Batch struct {
	// Data is the representative frame (shared, read-only).
	Data []byte
	// FrameSize is the on-wire frame length in bytes. It usually equals
	// len(Data) but may be set independently for truncated captures.
	FrameSize int
	// Count is the number of packets in the batch.
	Count int64
	// Delay is the accumulated one-way delay experienced so far by the
	// batch's representative (median) packet.
	Delay sim.Duration
	// Timestamped reports whether the path so far preserves hardware
	// timestamping capability; latency measurements require it end to
	// end (the paper's virtual testbed cannot measure latency).
	Timestamped bool
}

// Bytes returns the total wire-level payload bytes of the batch (excluding
// preamble/IFG overhead).
func (b Batch) Bytes() int64 { return b.Count * int64(b.FrameSize) }

// Device consumes batches arriving at its ports.
type Device interface {
	// HandleBatch is invoked by the engine when a batch is delivered to
	// one of the device's ports.
	HandleBatch(now sim.Time, in Batch, rx *Port)
}

// Counters accumulates per-port traffic statistics.
type Counters struct {
	TxPackets, TxBytes   int64
	RxPackets, RxBytes   int64
	TxDropped, RxDropped int64
}

// Port is a network interface attached to a Device.
//
// Its counters are plain fields the data plane updates on the engine
// goroutine. Only that goroutine may read them, or another goroutine after
// the engine's Run has returned: the contract router.Stats has. A topology
// runs on one engine, so no hop pays for a lock or an atomic add.
type Port struct {
	Name string
	// HardwareTimestamps marks ports whose NIC can timestamp packets in
	// hardware (true for the bare-metal Intel 82599 model, false for the
	// paravirtualized NICs of vpos).
	HardwareTimestamps bool

	dev   Device
	link  *Link
	side  int
	stats Counters
}

// NewPort returns a port owned by dev.
func NewPort(name string, dev Device) *Port {
	return &Port{Name: name, dev: dev}
}

// Stats returns a copy of the port's counters.
func (p *Port) Stats() Counters { return p.stats }

// ResetStats zeroes the port's counters.
func (p *Port) ResetStats() { p.stats = Counters{} }

// DropRx accounts packets discarded on ingress (bad frames, disabled
// ports).
func (p *Port) DropRx(n int64) { p.stats.RxDropped += n }

// Connected reports whether the port is wired to a link.
func (p *Port) Connected() bool { return p.link != nil }

// Peer returns the port at the far end of the wire, or nil.
func (p *Port) Peer() *Port {
	if p.link == nil {
		return nil
	}
	return p.link.ports[1-p.side]
}

// Send transmits a batch out of this port. Packets that do not fit in the
// link's queue are dropped and accounted as TxDropped.
func (p *Port) Send(now sim.Time, b Batch) {
	if p.link == nil {
		p.stats.TxDropped += b.Count
		return
	}
	// In cut-through mode a Send may carry a logical timestamp ahead of
	// the engine clock (the caller computed it synchronously); witness it
	// so the clock still ends the run at the scalar engine's final time.
	p.link.engine.Witness(now)
	if !p.HardwareTimestamps {
		b.Timestamped = false
	}
	sent, dropped := p.link.transmit(now, p.side, &b)
	p.stats.TxPackets += sent
	p.stats.TxBytes += sent * int64(b.FrameSize)
	p.stats.TxDropped += dropped
}

// deliver hands b to the port's device. The device gets its own copy, so no
// device keeps a pointer into a sender's frame or a pooled delivery record.
func (p *Port) deliver(now sim.Time, b *Batch) {
	p.stats.RxPackets += b.Count
	p.stats.RxBytes += b.Bytes()
	if p.dev != nil {
		p.dev.HandleBatch(now, *b, p)
	}
}

// LinkConfig describes a physical wire.
type LinkConfig struct {
	// RateBitsPerSec is the line rate; 0 defaults to 10 Gbit/s, the
	// paper's Intel 82599.
	RateBitsPerSec float64
	// PropagationDelay is the one-way fibre delay.
	PropagationDelay sim.Duration
	// QueueDelayLimit bounds the egress backlog expressed as time on the
	// wire; 0 defaults to 2 ms (a few hundred kilobytes of buffer at
	// 10 Gbit/s, typical of a NIC ring plus driver queue).
	QueueDelayLimit sim.Duration
	// LossRatio models imperfect cabling: the probability that a packet
	// is lost in transit (CRC errors from a marginal transceiver).
	// Losses are drawn deterministically from Seed.
	LossRatio float64
	// DelayJitterStd adds truncated-Gaussian delay variation per batch —
	// the PHY/retimer jitter of long or marginal links. Zero disables.
	DelayJitterStd sim.Duration
	// Seed drives the loss and jitter processes; links sharing a seed
	// behave identically on repeated runs.
	Seed uint64
}

const (
	// DefaultRate is 10 Gbit/s.
	DefaultRate = 10e9
	// DefaultQueueDelayLimit bounds egress backlog to 2 ms.
	DefaultQueueDelayLimit = 2 * sim.Millisecond
)

func (c LinkConfig) withDefaults() LinkConfig {
	if c.RateBitsPerSec == 0 {
		c.RateBitsPerSec = DefaultRate
	}
	if c.QueueDelayLimit == 0 {
		c.QueueDelayLimit = DefaultQueueDelayLimit
	}
	return c
}

// Link is a full-duplex point-to-point wire between exactly two ports —
// pos' direct, non-switched cabling (requirement R2). Both ports live on the
// link's one engine.
type Link struct {
	engine *sim.Engine
	cfg    LinkConfig
	ports  [2]*Port
	// busyUntil tracks, per direction, when the virtual transmitter
	// finishes serializing everything accepted so far.
	busyUntil [2]sim.Time
	// perPacket caches the serialization time for ppFrameSize-byte frames;
	// within a measurement run every batch has the same frame size, so the
	// hot path skips the float division.
	perPacket   sim.Duration
	ppFrameSize int
	// rng drives the loss process when LossRatio > 0.
	rng *sim.Rand
}

// Wire connects two ports with a fresh link. It panics if either port is
// already wired, because silently re-cabling a testbed is exactly the class
// of hidden state the framework exists to prevent.
func Wire(e *sim.Engine, a, b *Port, cfg LinkConfig) *Link {
	if a.link != nil || b.link != nil {
		panic(fmt.Sprintf("netem: port already wired (%s/%s)", a.Name, b.Name))
	}
	l := &Link{engine: e, cfg: cfg.withDefaults(), ports: [2]*Port{a, b}}
	if l.cfg.LossRatio > 0 || l.cfg.DelayJitterStd > 0 {
		l.rng = sim.NewRand(l.cfg.Seed + 1)
	}
	a.link, a.side = l, 0
	b.link, b.side = l, 1
	return l
}

// Unwire disconnects the link from both ports.
func (l *Link) Unwire() {
	for _, p := range l.ports {
		if p != nil {
			p.link = nil
		}
	}
}

// transmit applies the fluid egress model for one direction and schedules
// delivery at the far port. It returns accepted and dropped packet counts.
// b is the sending port's own copy: transmit rewrites its Count and Delay
// into what arrives at the far end, leaving FrameSize as it was.
func (l *Link) transmit(now sim.Time, side int, b *Batch) (accepted, dropped int64) {
	if b.Count <= 0 {
		return 0, 0
	}
	perPacket := l.perPacket
	if perPacket == 0 || b.FrameSize != l.ppFrameSize {
		perPacket = sim.Duration(float64(packet.WireSize(b.FrameSize)*8) / l.cfg.RateBitsPerSec * float64(sim.Second))
		if perPacket <= 0 {
			perPacket = 1
		}
		l.perPacket, l.ppFrameSize = perPacket, b.FrameSize
	}
	busy := l.busyUntil[side]
	if busy < now {
		busy = now
	}
	backlog := busy.Sub(now)
	room := l.cfg.QueueDelayLimit - backlog
	accepted = b.Count
	if room <= 0 {
		accepted = 0
	} else if need := sim.Duration(b.Count) * perPacket; need > room {
		accepted = int64(room / perPacket)
	}
	dropped = b.Count - accepted
	if accepted == 0 {
		return 0, dropped
	}
	txTime := sim.Duration(accepted) * perPacket
	l.busyUntil[side] = busy.Add(txTime)
	// Imperfect-cabling losses happen *after* transmission: the NIC counts
	// the packet as sent, the far end never sees it — exactly what a real
	// TX counter vs. RX counter pair reports for a marginal cable.
	delivered := accepted
	if l.rng != nil && l.cfg.LossRatio > 0 {
		delivered = l.thin(accepted)
	}
	if delivered > 0 {
		// The representative packet sits mid-batch: it waits for the
		// existing backlog plus half of its own batch's serialization
		// time.
		b.Count = delivered
		extra := l.cfg.PropagationDelay
		if l.rng != nil && l.cfg.DelayJitterStd > 0 {
			j := sim.Duration(float64(l.cfg.DelayJitterStd) * l.rng.NormFloat64())
			if j < -extra {
				j = -extra // jitter cannot make delivery precede the send
			}
			extra += j
		}
		b.Delay += backlog + txTime/2 + extra
		dst := l.ports[1-side]
		deliverAt := l.busyUntil[side].Add(extra)
		if l.engine.Batching() && l.cfg.DelayJitterStd == 0 {
			// Cut-through: deliver synchronously with the future
			// logical timestamp instead of scheduling a heap event.
			// Valid because per-direction delivery times are monotone
			// (busyUntil only grows and extra is constant without
			// jitter), so the receiver still observes batches in
			// timestamp order. Jittered links fall back to events to
			// preserve time-ordered delivery.
			l.engine.Witness(deliverAt)
			dst.deliver(deliverAt, b)
		} else {
			deliveryPoolGets.Inc()
			d := deliveryPool.Get().(*delivery)
			d.dst, d.b = dst, *b
			l.engine.AtArg(deliverAt, runDelivery, d)
		}
	}
	return accepted, dropped
}

// delivery is the pooled argument of a link's delivery event; recycling it
// keeps the scalar event path free of per-batch allocations.
type delivery struct {
	dst *Port
	b   Batch
}

var deliveryPool = sync.Pool{New: func() any {
	deliveryPoolMisses.Inc()
	return new(delivery)
}}

// runDelivery is the shared ArgHandler for link deliveries. The record goes
// back to the pool only after the delivery returns, so a hop the delivery
// sets off cannot draw it while its batch is still being read.
func runDelivery(now sim.Time, arg any) {
	d := arg.(*delivery)
	d.dst.deliver(now, &d.b)
	d.dst, d.b = nil, Batch{}
	deliveryPool.Put(d)
}

// thin draws the binomial survival of count packets under the loss ratio.
func (l *Link) thin(count int64) int64 {
	survived := int64(0)
	if count > 1000 {
		// Gaussian approximation keeps huge batches cheap.
		mean := float64(count) * (1 - l.cfg.LossRatio)
		variance := float64(count) * l.cfg.LossRatio * (1 - l.cfg.LossRatio)
		survived = int64(mean + l.rng.NormFloat64()*math.Sqrt(variance) + 0.5)
	} else {
		for i := int64(0); i < count; i++ {
			if l.rng.Float64() >= l.cfg.LossRatio {
				survived++
			}
		}
	}
	if survived < 0 {
		survived = 0
	}
	if survived > count {
		survived = count
	}
	return survived
}
