package loadgen

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"pos/internal/netem"
	"pos/internal/packet"
	"pos/internal/pcap"
	"pos/internal/perfmodel"
	"pos/internal/router"
	"pos/internal/sim"
)

func template(size int) packet.UDPTemplate {
	return packet.UDPTemplate{
		SrcMAC: packet.MAC{2, 0, 0, 0, 0, 1}, DstMAC: packet.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: packet.IPv4Addr{10, 0, 0, 2}, DstIP: packet.IPv4Addr{10, 0, 1, 2},
		SrcPort: 1000, DstPort: 2000, FrameSize: size,
	}
}

// loopback wires the generator's TX port straight to its RX port.
func loopback(e *sim.Engine, hw bool) *Generator {
	g := New(e, "lg", hw)
	netem.Wire(e, g.TxPort(), g.RxPort(), netem.LinkConfig{})
	return g
}

// dutSetup wires generator <-> router with the given model.
func dutSetup(t testing.TB, model perfmodel.Model, hw bool) (*sim.Engine, *Generator) {
	t.Helper()
	e := sim.NewEngine()
	g := New(e, "lg", hw)
	r, err := router.New(e, router.Config{Name: "dut", Model: model, HardwareTimestamps: hw})
	if err != nil {
		t.Fatal(err)
	}
	netem.Wire(e, g.TxPort(), r.Port(0), netem.LinkConfig{})
	netem.Wire(e, r.Port(1), g.RxPort(), netem.LinkConfig{})
	return e, g
}

func TestLoopbackCountsExactly(t *testing.T) {
	e := sim.NewEngine()
	g := loopback(e, true)
	res, err := g.Run(RunConfig{Template: template(64), RatePPS: 10_000, Duration: sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.TxPackets != 10_000 {
		t.Errorf("TxPackets = %d, want 10000", res.TxPackets)
	}
	if res.RxPackets != res.TxPackets {
		t.Errorf("RxPackets = %d, want %d", res.RxPackets, res.TxPackets)
	}
	if res.LossRatio() != 0 {
		t.Errorf("loss = %v", res.LossRatio())
	}
	if res.FrameSize != 64 {
		t.Errorf("FrameSize = %d", res.FrameSize)
	}
}

func TestFractionalRateCarry(t *testing.T) {
	// 12345 pps over 1 s with 1 ms ticks is 12.345 packets per tick; the
	// carry accumulator must still hit the total exactly.
	e := sim.NewEngine()
	g := loopback(e, true)
	res, err := g.Run(RunConfig{Template: template(64), RatePPS: 12_345, Duration: sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.TxPackets != 12_345 {
		t.Errorf("TxPackets = %d, want 12345", res.TxPackets)
	}
}

func TestLowRateStillTransmits(t *testing.T) {
	e := sim.NewEngine()
	g := loopback(e, true)
	res, err := g.Run(RunConfig{Template: template(64), RatePPS: 3, Duration: sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.TxPackets != 3 {
		t.Errorf("TxPackets = %d, want 3", res.TxPackets)
	}
}

func TestRunValidation(t *testing.T) {
	e := sim.NewEngine()
	g := loopback(e, true)
	for name, cfg := range map[string]RunConfig{
		"zero rate":        {Template: template(64), RatePPS: 0, Duration: sim.Second},
		"NaN rate":         {Template: template(64), RatePPS: math.NaN(), Duration: sim.Second},
		"infinite rate":    {Template: template(64), RatePPS: math.Inf(1), Duration: sim.Second},
		"rate past int64":  {Template: template(64), RatePPS: 1e300, Duration: sim.Second},
		"zero duration":    {Template: template(64), RatePPS: 100, Duration: 0},
		"invalid template": {Template: template(1), RatePPS: 100, Duration: sim.Second},
	} {
		if res, err := g.Run(cfg); err == nil {
			t.Errorf("accepted %s: %+v", name, res)
		}
	}
	// A rejected configuration leaves the generator usable.
	res, err := g.Run(RunConfig{Template: template(64), RatePPS: 1000, Duration: sim.Second})
	if err != nil || res.TxPackets != 1000 {
		t.Errorf("run after rejected configs: %d packets, %v", res.TxPackets, err)
	}
}

func TestLatencyMeasuredOnBareMetal(t *testing.T) {
	_, g := dutSetup(t, perfmodel.NewBareMetal(), true)
	res, err := g.Run(RunConfig{Template: template(64), RatePPS: 10_000, Duration: sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !res.LatencyAvailable {
		t.Fatal("latency unavailable on bare metal")
	}
	avg, min, max := res.LatencyStats()
	if min <= 0 || avg < min || max < avg {
		t.Errorf("latency stats inconsistent: avg=%v min=%v max=%v", avg, min, max)
	}
}

func TestLatencyUnavailableOnVM(t *testing.T) {
	// The paper: "in our VM, we cannot generate latency measurements, due
	// to the limited hardware support."
	_, g := dutSetup(t, perfmodel.NewVirtual(1), false)
	res, err := g.Run(RunConfig{Template: template(64), RatePPS: 10_000, Duration: sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.LatencyAvailable || len(res.Latencies) != 0 {
		t.Error("latency reported despite missing hardware timestamps")
	}
	if res.RxPackets == 0 {
		t.Error("throughput measurement should still work on the VM")
	}
}

func TestThroughputPlateausAtDuTCapacity(t *testing.T) {
	_, g := dutSetup(t, perfmodel.NewBareMetal(), true)
	res, err := g.Run(RunConfig{Template: template(64), RatePPS: 2_000_000, Duration: sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.RxRatePPS < 1.70e6 || res.RxRatePPS > 1.82e6 {
		t.Errorf("RxRatePPS = %.0f, want ~1.75M", res.RxRatePPS)
	}
	if res.LossRatio() <= 0 {
		t.Error("expected loss above capacity")
	}
}

func TestPerSecondSamples(t *testing.T) {
	e := sim.NewEngine()
	g := loopback(e, true)
	res, err := g.Run(RunConfig{Template: template(64), RatePPS: 1000, Duration: 3 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerSecondTx) < 3 {
		t.Fatalf("PerSecondTx = %v, want >= 3 samples", res.PerSecondTx)
	}
	for i := 0; i < 2; i++ {
		if res.PerSecondTx[i] < 990 || res.PerSecondTx[i] > 1010 {
			t.Errorf("second %d: tx = %v, want ~1000", i, res.PerSecondTx[i])
		}
	}
}

func TestSequentialRunsIndependent(t *testing.T) {
	e := sim.NewEngine()
	g := loopback(e, true)
	a, err := g.Run(RunConfig{Template: template(64), RatePPS: 5000, Duration: sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Run(RunConfig{Template: template(128), RatePPS: 7000, Duration: sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	if a.TxPackets != 5000 || b.TxPackets != 7000 {
		t.Errorf("runs bled into each other: %d / %d", a.TxPackets, b.TxPackets)
	}
	if b.FrameSize != 128 {
		t.Errorf("second run frame size = %d", b.FrameSize)
	}
}

func TestPcapReplay(t *testing.T) {
	// Build a two-frame capture, replay it, and check alternation.
	f1, _ := template(64).Build()
	f2, _ := template(128).Build()
	replay := []pcap.Packet{
		{Timestamp: time.Unix(0, 0), Data: f1},
		{Timestamp: time.Unix(0, 1000), Data: f2},
	}
	e := sim.NewEngine()
	g := loopback(e, true)
	res, err := g.Run(RunConfig{Replay: replay, RatePPS: 10_000, Duration: sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.TxPackets != 10_000 {
		t.Errorf("TxPackets = %d", res.TxPackets)
	}
	// Mixed sizes: total bytes between the two pure cases.
	if res.TxBytes <= 10_000*64 || res.TxBytes >= 10_000*128 {
		t.Errorf("TxBytes = %d, want strictly between pure-64 and pure-128", res.TxBytes)
	}
}

func TestLatencySampleEvery(t *testing.T) {
	_, g := dutSetup(t, perfmodel.NewBareMetal(), true)
	res, err := g.Run(RunConfig{
		Template: template(64), RatePPS: 100_000, Duration: sim.Second,
		LatencySampleEvery: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 1000 ticks -> 1000 batches -> ~100 samples.
	if len(res.Latencies) < 80 || len(res.Latencies) > 120 {
		t.Errorf("samples = %d, want ~100", len(res.Latencies))
	}
}

func TestMaxLatencySamplesBound(t *testing.T) {
	_, g := dutSetup(t, perfmodel.NewBareMetal(), true)
	res, err := g.Run(RunConfig{
		Template: template(64), RatePPS: 100_000, Duration: sim.Second,
		MaxLatencySamples: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Latencies) > 50 {
		t.Errorf("samples = %d, want <= 50", len(res.Latencies))
	}
}

func TestWriteReportFormat(t *testing.T) {
	_, g := dutSetup(t, perfmodel.NewBareMetal(), true)
	res, err := g.Run(RunConfig{Template: template(64), RatePPS: 50_000, Duration: 2 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"[Device: id=0] TX:",
		"[Device: id=1] RX:",
		"total 100000 packets",
		"Mbit/s with framing",
		"[Latency] avg:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestWriteLatencyCSVSorted(t *testing.T) {
	res := RunResult{Latencies: []sim.Duration{300, 100, 200}}
	var buf bytes.Buffer
	if err := res.WriteLatencyCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "100\n200\n300\n" {
		t.Errorf("CSV = %q", got)
	}
}

func TestStddev(t *testing.T) {
	if got := stddev([]float64{5, 5, 5}); got != 0 {
		t.Errorf("stddev constant = %v", got)
	}
	if got := stddev([]float64{1}); got != 0 {
		t.Errorf("stddev single = %v", got)
	}
	got := stddev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if got < 2.13 || got > 2.15 {
		t.Errorf("stddev = %v, want ~2.14", got)
	}
}

func BenchmarkGeneratorRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		g := loopback(e, true)
		if _, err := g.Run(RunConfig{Template: template(64), RatePPS: 100_000, Duration: 100 * sim.Millisecond}); err != nil {
			b.Fatal(err)
		}
	}
}
