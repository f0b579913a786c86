package netem

import (
	"sync"

	"pos/internal/packet"
	"pos/internal/sim"
)

// Switch is a store-and-forward L2 switch with MAC learning. The pos testbed
// deliberately avoids switches between experiment hosts (requirement R2 —
// isolation); this device exists for the ablation benchmarks that quantify
// exactly what a switched topology would add (~300 ns for an L2 cut-through
// switch versus ~15 ns for an optical L1 cross-connect, Sec. 7). Like a
// Port's counters, its learning table belongs to the engine goroutine.
type Switch struct {
	Name string
	// ForwardingDelay is added to every forwarded packet.
	ForwardingDelay sim.Duration

	engine *sim.Engine
	ports  []*Port
	fdb    map[packet.MAC]*Port
}

// Typical forwarding delays from the paper's limitations section.
const (
	// CutThroughSwitchDelay approximates an L2 cut-through switch.
	CutThroughSwitchDelay = 300 * sim.Nanosecond
	// OpticalSwitchDelay approximates an L1 optical cross-connect.
	OpticalSwitchDelay = 15 * sim.Nanosecond
)

// NewSwitch returns a switch with n ports named name.0 … name.(n-1).
func NewSwitch(e *sim.Engine, name string, n int, delay sim.Duration) *Switch {
	s := &Switch{
		Name:            name,
		ForwardingDelay: delay,
		engine:          e,
		fdb:             make(map[packet.MAC]*Port),
	}
	for i := 0; i < n; i++ {
		p := NewPort(name+portSuffix(i), s)
		// Switches are transparent to hardware timestamping: the
		// timestamps are taken at the generator's NICs, so transit
		// through a switch must not clear the capability.
		p.HardwareTimestamps = true
		s.ports = append(s.ports, p)
	}
	return s
}

func portSuffix(i int) string {
	return "." + string(rune('0'+i%10))
}

// Port returns the i-th switch port.
func (s *Switch) Port(i int) *Port { return s.ports[i] }

// HandleBatch implements Device: learn the source MAC, then forward to the
// learned destination port or flood.
func (s *Switch) HandleBatch(now sim.Time, in Batch, rx *Port) {
	var eth packet.Ethernet
	if _, err := eth.DecodeFromBytes(in.Data); err != nil {
		rx.DropRx(in.Count)
		return
	}
	s.fdb[eth.Src] = rx
	dst, known := s.fdb[eth.Dst]
	var targets []*Port
	if known && dst != rx {
		targets = append(targets, dst)
	} else if !known {
		for _, p := range s.ports {
			if p != rx && p.Connected() {
				targets = append(targets, p)
			}
		}
	}
	out := in
	out.Delay += s.ForwardingDelay
	for _, p := range targets {
		d := switchSendPool.Get().(*switchSend)
		d.p, d.b = p, out
		s.engine.AtArg(now.Add(s.ForwardingDelay), runSwitchSend, d)
	}
}

// switchSend is the pooled argument of a switch forwarding event.
type switchSend struct {
	p *Port
	b Batch
}

var switchSendPool = sync.Pool{New: func() any { return new(switchSend) }}

func runSwitchSend(now sim.Time, arg any) {
	d := arg.(*switchSend)
	p, b := d.p, d.b
	d.p, d.b = nil, Batch{}
	switchSendPool.Put(d)
	p.Send(now, b)
}

// Sink is a Device that records everything it receives; tests and capture
// points use it as a traffic endpoint.
type Sink struct {
	Port    *Port
	Batches []Batch
	// Packets and Bytes total the received traffic.
	Packets, Bytes int64
	// OnBatch, when non-nil, observes each delivery.
	OnBatch func(now sim.Time, b Batch)
}

// NewSink returns a sink with one port.
func NewSink(name string) *Sink {
	s := &Sink{}
	s.Port = NewPort(name, s)
	return s
}

// HandleBatch implements Device.
func (s *Sink) HandleBatch(now sim.Time, in Batch, rx *Port) {
	s.Batches = append(s.Batches, in)
	s.Packets += in.Count
	s.Bytes += in.Bytes()
	if s.OnBatch != nil {
		s.OnBatch(now, in)
	}
}
