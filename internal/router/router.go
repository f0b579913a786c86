// Package router emulates the paper's device under test: a Linux software
// router forwarding packets between its two NIC ports. The forwarding
// fast path validates and rewrites real IPv4 headers (TTL decrement,
// incremental checksum update) while throughput is governed by a
// perfmodel.Model — bare metal or virtualized — using the same fluid
// busy-until discipline as the links, so CPU saturation produces drops and
// queueing delay exactly where the paper's Fig. 3 shows them.
package router

import (
	"encoding/binary"
	"fmt"
	"sync"

	"pos/internal/netem"
	"pos/internal/packet"
	"pos/internal/perfmodel"
	"pos/internal/sim"
)

// Stats counts the router's forwarding activity.
type Stats struct {
	Forwarded  int64 // packets sent out the egress port
	Dropped    int64 // packets lost to CPU overload (queue overflow)
	TTLExpired int64 // packets discarded for TTL <= 1
	BadPacket  int64 // undecodable or non-IPv4 packets
	NotRouting int64 // packets discarded while ip_forward was off
}

// Config parameterizes a Router.
type Config struct {
	// Name identifies the router in logs and metadata.
	Name string
	// Model is the forwarding capacity model. Required.
	Model perfmodel.Model
	// QueueDelayLimit bounds the software ingress queue, expressed as
	// time at the current service rate; 0 defaults to 50 ms (roughly
	// 1000 descriptors at VM rates, generous at bare-metal rates).
	QueueDelayLimit sim.Duration
	// HardwareTimestamps marks the router's NICs as capable of hardware
	// timestamping (true for the bare-metal 82599 model).
	HardwareTimestamps bool
}

// DefaultQueueDelayLimit bounds the router's software queue backlog.
const DefaultQueueDelayLimit = 50 * sim.Millisecond

// Router is a two-port IPv4 forwarder.
type Router struct {
	cfg    Config
	engine *sim.Engine
	ports  [2]*netem.Port
	stats  Stats
	// busyUntil is the CPU's virtual completion time.
	busyUntil sim.Time
	// lastCapacity caches the capacity used for utilization reporting.
	lastCapacity float64
	// rewriteIn/rewriteOut memoize the last forwarding rewrite: the load
	// generator reuses one template frame per run, so almost every batch
	// carries the same representative bytes. The memo must not be reused
	// as scratch because delivered batches alias rewriteOut until their
	// scheduled events fire.
	rewriteIn  []byte
	rewriteOut []byte
	// forwarding mirrors net.ipv4.ip_forward: when false, arriving
	// packets are discarded — the state of a freshly booted Linux host
	// before the setup script enables routing.
	forwarding bool
}

// New constructs a router with ports named <name>.eth0 and <name>.eth1.
func New(e *sim.Engine, cfg Config) (*Router, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("router %q: nil capacity model", cfg.Name)
	}
	if cfg.QueueDelayLimit == 0 {
		cfg.QueueDelayLimit = DefaultQueueDelayLimit
	}
	r := &Router{cfg: cfg, engine: e, forwarding: true}
	for i := range r.ports {
		p := netem.NewPort(fmt.Sprintf("%s.eth%d", cfg.Name, i), r)
		p.HardwareTimestamps = cfg.HardwareTimestamps
		r.ports[i] = p
	}
	return r, nil
}

// Port returns the i-th NIC port (0 or 1).
func (r *Router) Port(i int) *netem.Port { return r.ports[i] }

// Stats returns a snapshot of the forwarding counters.
func (r *Router) Stats() Stats { return r.stats }

// ResetStats zeroes counters and the CPU backlog — the equivalent of a fresh
// measurement run after a reboot.
func (r *Router) ResetStats() {
	r.stats = Stats{}
	r.busyUntil = 0
}

// Utilization reports the CPU backlog as a fraction of the queue limit.
func (r *Router) Utilization(now sim.Time) float64 {
	if r.busyUntil <= now {
		return 0
	}
	return float64(r.busyUntil.Sub(now)) / float64(r.cfg.QueueDelayLimit)
}

// SetForwarding toggles the IPv4 forwarding path — the emulated
// net.ipv4.ip_forward sysctl the DuT setup script flips.
func (r *Router) SetForwarding(on bool) { r.forwarding = on }

// HandleBatch implements netem.Device: forward from one port to the other.
// in is this hop's own copy, rewritten in place into what leaves egress.
func (r *Router) HandleBatch(now sim.Time, in Batch, rx *netem.Port) {
	if !r.forwarding {
		r.stats.NotRouting += in.Count
		return
	}
	out := r.egress(rx)
	if out == nil {
		r.stats.BadPacket += in.Count
		return
	}
	if !r.rewrite(&in) {
		return
	}
	// CPU admission: the model's capacity for this interval sets the
	// per-packet service time; packets beyond the queue limit are lost,
	// as a saturated softirq path drops at the NIC ring.
	capacity := r.cfg.Model.CapacityPPS(now, in.FrameSize)
	r.lastCapacity = capacity
	if capacity <= 0 {
		r.stats.Dropped += in.Count
		return
	}
	perPacket := sim.Duration(float64(sim.Second) / capacity)
	if perPacket <= 0 {
		perPacket = 1
	}
	busy := r.busyUntil
	if busy < now {
		busy = now
	}
	backlog := busy.Sub(now)
	room := r.cfg.QueueDelayLimit - backlog
	accepted := in.Count
	if room <= 0 {
		accepted = 0
	} else if need := sim.Duration(in.Count) * perPacket; need > room {
		accepted = int64(room / perPacket)
	}
	r.stats.Dropped += in.Count - accepted
	if accepted == 0 {
		return
	}
	svcTime := sim.Duration(accepted) * perPacket
	r.busyUntil = busy.Add(svcTime)
	in.Count = accepted
	in.Delay += backlog + svcTime/2 + r.cfg.Model.SampleLatency(r.Utilization(now))
	r.stats.Forwarded += accepted
	if r.engine.Batching() {
		// Cut-through: hand the batch straight to the egress port with
		// its logical completion time. busyUntil is monotone, so the
		// downstream link still sees sends in timestamp order.
		out.Send(r.busyUntil, in)
		return
	}
	d := sendPool.Get().(*egressSend)
	d.out, d.b = out, in
	r.engine.AtArg(r.busyUntil, runEgressSend, d)
}

// egressSend is the pooled argument of the router's completion event in the
// scalar path.
type egressSend struct {
	out *netem.Port
	b   Batch
}

var sendPool = sync.Pool{New: func() any { return new(egressSend) }}

func runEgressSend(now sim.Time, arg any) {
	d := arg.(*egressSend)
	out, b := d.out, d.b
	d.out, d.b = nil, Batch{}
	sendPool.Put(d)
	out.Send(now, b)
}

// Batch aliases netem.Batch for readability in this package's signatures.
type Batch = netem.Batch

// egress picks the opposite port.
func (r *Router) egress(rx *netem.Port) *netem.Port {
	switch rx {
	case r.ports[0]:
		return r.ports[1]
	case r.ports[1]:
		return r.ports[0]
	default:
		return nil
	}
}

// rewrite performs the IPv4 forwarding transformation in place on the
// batch's representative frame: validate, decrement TTL, and update the
// checksum incrementally (RFC 1624). It returns false when the whole batch
// is discarded.
func (r *Router) rewrite(b *Batch) bool {
	// Memo hit: these exact bytes (same backing array, shared read-only)
	// already passed validation when the memo was filled — skip the decode
	// entirely. This keeps the steady-state forwarding path allocation-free.
	// The lengths are compared first: an empty frame has no first byte to
	// take the address of, and falls through to the decoder as BadPacket.
	if r.rewriteIn != nil && len(r.rewriteIn) == len(b.Data) && &r.rewriteIn[0] == &b.Data[0] {
		b.Data = r.rewriteOut
		return true
	}
	var p packet.Packet
	if err := p.DecodeInto(b.Data); err != nil || !p.Has(packet.LayerTypeIPv4) {
		r.stats.BadPacket += b.Count
		return false
	}
	if p.IP.TTL <= 1 {
		r.stats.TTLExpired += b.Count
		return false
	}
	rewritten := make([]byte, len(b.Data))
	copy(rewritten, b.Data)
	hdr := rewritten[packet.EthernetHeaderLen:]
	hdr[8]-- // TTL
	// Incremental checksum (RFC 1141): decrementing the TTL byte (high
	// byte of word 4) increases the stored checksum by 0x0100, with
	// end-around carry.
	cs := binary.BigEndian.Uint16(hdr[10:12])
	sum := uint32(cs) + 0x0100
	sum = (sum & 0xffff) + (sum >> 16)
	binary.BigEndian.PutUint16(hdr[10:12], uint16(sum))
	r.rewriteIn, r.rewriteOut = b.Data, rewritten
	b.Data = rewritten
	return true
}
