package netem

import (
	"testing"
	"testing/quick"

	"pos/internal/packet"
	"pos/internal/sim"
)

func frame(t testing.TB, size int, srcLast, dstLast byte) []byte {
	t.Helper()
	data, err := packet.UDPTemplate{
		SrcMAC:    packet.MAC{2, 0, 0, 0, 0, srcLast},
		DstMAC:    packet.MAC{2, 0, 0, 0, 0, dstLast},
		SrcIP:     packet.IPv4Addr{10, 0, 0, srcLast},
		DstIP:     packet.IPv4Addr{10, 0, 0, dstLast},
		SrcPort:   1000,
		DstPort:   2000,
		FrameSize: size,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestLinkDeliversBatch(t *testing.T) {
	e := sim.NewEngine()
	sink := NewSink("rx")
	tx := NewPort("tx", nil)
	Wire(e, tx, sink.Port, LinkConfig{})
	data := frame(t, 64, 1, 2)
	tx.Send(e.Now(), Batch{Data: data, FrameSize: 64, Count: 100})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sink.Packets != 100 {
		t.Errorf("sink received %d packets, want 100", sink.Packets)
	}
	if got := tx.Stats().TxPackets; got != 100 {
		t.Errorf("TxPackets = %d", got)
	}
	if got := sink.Port.Stats().RxPackets; got != 100 {
		t.Errorf("RxPackets = %d", got)
	}
}

func TestLinkSerializationDelayMatchesLineRate(t *testing.T) {
	e := sim.NewEngine()
	sink := NewSink("rx")
	tx := NewPort("tx", nil)
	Wire(e, tx, sink.Port, LinkConfig{RateBitsPerSec: 10e9})
	var deliveredAt sim.Time
	sink.OnBatch = func(now sim.Time, b Batch) { deliveredAt = now }
	// One 64 B frame: (64+20)*8 bits at 10 Gbit/s = 67.2 ns.
	tx.Send(0, Batch{Data: frame(t, 64, 1, 2), FrameSize: 64, Count: 1})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if deliveredAt < 66 || deliveredAt > 69 {
		t.Errorf("delivered at %d ns, want ~67", deliveredAt)
	}
}

func TestLinkEnforcesLineRateCeiling(t *testing.T) {
	// Offer 1.0 Mpps of 1500 B frames for one second on a 10 Gbit/s link:
	// only ~0.82 Mpps fit on the wire; the rest must be dropped.
	e := sim.NewEngine()
	sink := NewSink("rx")
	tx := NewPort("tx", nil)
	Wire(e, tx, sink.Port, LinkConfig{})
	data := frame(t, 1500, 1, 2)
	const ticks = 1000
	perTick := int64(1_000_000 / ticks)
	for i := 0; i < ticks; i++ {
		i := i
		e.At(sim.Time(i)*sim.Time(sim.Millisecond), func(now sim.Time) {
			tx.Send(now, Batch{Data: data, FrameSize: 1500, Count: perTick})
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	line := packet.LineRatePPS(10e9, 1500)
	got := float64(sink.Packets)
	if got < line*0.97 || got > line*1.01 {
		t.Errorf("delivered %.0f pps, want ~%.0f (line rate)", got, line)
	}
	if tx.Stats().TxDropped == 0 {
		t.Error("expected egress drops above line rate")
	}
}

func TestLinkQueueingDelayGrowsWithBacklog(t *testing.T) {
	e := sim.NewEngine()
	sink := NewSink("rx")
	tx := NewPort("tx", nil)
	Wire(e, tx, sink.Port, LinkConfig{})
	data := frame(t, 1500, 1, 2)
	var delays []sim.Duration
	sink.OnBatch = func(now sim.Time, b Batch) { delays = append(delays, b.Delay) }
	// Two back-to-back bursts: the second queues behind the first.
	tx.Send(0, Batch{Data: data, FrameSize: 1500, Count: 100})
	tx.Send(0, Batch{Data: data, FrameSize: 1500, Count: 100})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(delays) != 2 {
		t.Fatalf("got %d deliveries", len(delays))
	}
	if delays[1] <= delays[0] {
		t.Errorf("second burst delay %v not greater than first %v", delays[1], delays[0])
	}
}

func TestLinkPropagationDelay(t *testing.T) {
	e := sim.NewEngine()
	sink := NewSink("rx")
	tx := NewPort("tx", nil)
	Wire(e, tx, sink.Port, LinkConfig{PropagationDelay: sim.Microsecond})
	var at sim.Time
	sink.OnBatch = func(now sim.Time, b Batch) { at = now }
	tx.Send(0, Batch{Data: frame(t, 64, 1, 2), FrameSize: 64, Count: 1})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at < sim.Time(sim.Microsecond) {
		t.Errorf("delivered at %v, want >= 1µs", at)
	}
}

func TestSendOnUnwiredPortDrops(t *testing.T) {
	p := NewPort("orphan", nil)
	p.Send(0, Batch{FrameSize: 64, Count: 5})
	if got := p.Stats().TxDropped; got != 5 {
		t.Errorf("TxDropped = %d, want 5", got)
	}
}

func TestDoubleWirePanics(t *testing.T) {
	e := sim.NewEngine()
	a, b, c := NewPort("a", nil), NewPort("b", nil), NewPort("c", nil)
	Wire(e, a, b, LinkConfig{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on re-wiring")
		}
	}()
	Wire(e, a, c, LinkConfig{})
}

func TestTimestampedFlagClearedBySoftNIC(t *testing.T) {
	e := sim.NewEngine()
	sink := NewSink("rx")
	sink.Port.HardwareTimestamps = true
	tx := NewPort("tx", nil) // no hardware timestamps — a vpos NIC
	Wire(e, tx, sink.Port, LinkConfig{})
	var got Batch
	sink.OnBatch = func(_ sim.Time, b Batch) { got = b }
	tx.Send(0, Batch{Data: frame(t, 64, 1, 2), FrameSize: 64, Count: 1, Timestamped: true})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got.Timestamped {
		t.Error("Timestamped survived a NIC without hardware support")
	}
}

func TestSwitchLearnsAndForwards(t *testing.T) {
	e := sim.NewEngine()
	sw := NewSwitch(e, "sw", 3, CutThroughSwitchDelay)
	hostA := NewSink("a")
	hostB := NewSink("b")
	hostC := NewSink("c")
	Wire(e, hostA.Port, sw.Port(0), LinkConfig{})
	Wire(e, hostB.Port, sw.Port(1), LinkConfig{})
	Wire(e, hostC.Port, sw.Port(2), LinkConfig{})

	aToB := frame(t, 64, 1, 2)
	bToA := frame(t, 64, 2, 1)
	// First packet A->B: dst unknown, flooded to B and C.
	hostA.Port.Send(0, Batch{Data: aToB, FrameSize: 64, Count: 1})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if hostB.Packets != 1 || hostC.Packets != 1 {
		t.Fatalf("flood: B=%d C=%d, want 1/1", hostB.Packets, hostC.Packets)
	}
	// Reply B->A: A's MAC was learned, unicast only.
	hostB.Port.Send(e.Now(), Batch{Data: bToA, FrameSize: 64, Count: 1})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if hostA.Packets != 1 {
		t.Errorf("A received %d, want 1", hostA.Packets)
	}
	if hostC.Packets != 1 {
		t.Errorf("C received %d (extra flood), want 1", hostC.Packets)
	}
	// Now A->B again: B was learned from the reply path? B sent, so yes.
	hostA.Port.Send(e.Now(), Batch{Data: aToB, FrameSize: 64, Count: 1})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if hostB.Packets != 2 || hostC.Packets != 1 {
		t.Errorf("unicast: B=%d C=%d, want 2/1", hostB.Packets, hostC.Packets)
	}
}

func TestSwitchAddsForwardingDelay(t *testing.T) {
	measure := func(delay sim.Duration) sim.Duration {
		e := sim.NewEngine()
		sw := NewSwitch(e, "sw", 2, delay)
		a := NewSink("a")
		b := NewSink("b")
		Wire(e, a.Port, sw.Port(0), LinkConfig{})
		Wire(e, b.Port, sw.Port(1), LinkConfig{})
		var got sim.Duration
		b.OnBatch = func(_ sim.Time, batch Batch) { got = batch.Delay }
		a.Port.Send(0, Batch{Data: frame(t, 64, 1, 2), FrameSize: 64, Count: 1})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	l2 := measure(CutThroughSwitchDelay)
	l1 := measure(OpticalSwitchDelay)
	if l2-l1 != CutThroughSwitchDelay-OpticalSwitchDelay {
		t.Errorf("delay difference = %v, want %v", l2-l1, CutThroughSwitchDelay-OpticalSwitchDelay)
	}
}

func TestSwitchDropsUndecodableFrames(t *testing.T) {
	e := sim.NewEngine()
	sw := NewSwitch(e, "sw", 2, 0)
	a := NewSink("a")
	b := NewSink("b")
	Wire(e, a.Port, sw.Port(0), LinkConfig{})
	Wire(e, b.Port, sw.Port(1), LinkConfig{})
	a.Port.Send(0, Batch{Data: []byte{1, 2, 3}, FrameSize: 3, Count: 1})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if b.Packets != 0 {
		t.Errorf("switch forwarded garbage: %d packets", b.Packets)
	}
}

// Property: the link never creates packets — delivered + dropped == offered —
// and never exceeds the line-rate ceiling.
func TestLinkConservationProperty(t *testing.T) {
	data := frame(t, 64, 1, 2)
	prop := func(counts []uint16) bool {
		e := sim.NewEngine()
		sink := NewSink("rx")
		tx := NewPort("tx", nil)
		Wire(e, tx, sink.Port, LinkConfig{})
		var offered int64
		for i, c := range counts {
			i, c := i, c
			offered += int64(c)
			e.At(sim.Time(i)*sim.Time(sim.Microsecond), func(now sim.Time) {
				tx.Send(now, Batch{Data: data, FrameSize: 64, Count: int64(c)})
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		st := tx.Stats()
		return st.TxPackets+st.TxDropped == offered && sink.Packets == st.TxPackets
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkLinkTransmit(b *testing.B) {
	e := sim.NewEngine()
	sink := NewSink("rx")
	tx := NewPort("tx", nil)
	Wire(e, tx, sink.Port, LinkConfig{})
	data, _ := packet.UDPTemplate{FrameSize: 64}.Build()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tx.Send(e.Now(), Batch{Data: data, FrameSize: 64, Count: 32})
		e.Run()
	}
}
