package casestudy_test

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"time"

	"pos/internal/casestudy"
	"pos/internal/packet"
	"pos/internal/pcap"
	"pos/internal/plot"
)

// ExampleNew runs one measurement point of the paper's case study on the
// bare-metal platform.
func ExampleNew() {
	topo, err := casestudy.New(casestudy.BareMetal)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer topo.Close()
	point, err := topo.DirectRun(64, 100_000, 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("offered 0.100 Mpps, received %.3f Mpps, loss %.0f%%\n",
		point.RxMpps, point.LossRatio*100)
	// Output: offered 0.100 Mpps, received 0.100 Mpps, loss 0%
}

// ExampleTopology_LatencySamples sweeps three load levels on the bare-metal
// rig, collects hardware-timestamped one-way latencies and renders every
// distribution plot the evaluation phase ships. On vpos the same request
// fails: a VM has no hardware timestamps.
func ExampleTopology_LatencySamples() {
	topo, err := casestudy.New(casestudy.BareMetal)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer topo.Close()
	samples := make(map[string][]float64)
	for _, load := range []struct {
		label string
		rate  float64
	}{{"0.1 Mpps", 100_000}, {"0.8 Mpps", 800_000}, {"1.6 Mpps", 1_600_000}} {
		ns, err := topo.LatencySamples(64, load.rate, 1)
		if err != nil {
			fmt.Println(err)
			return
		}
		sorted := append([]float64(nil), ns...)
		sort.Float64s(sorted)
		fmt.Printf("%s offered: %d samples, p50 %.1f µs, p99 %.1f µs\n",
			load.label, len(ns), sorted[len(sorted)/2]/1000, sorted[len(sorted)*99/100]/1000)
		samples[load.label] = ns
	}
	figures := map[string]*plot.Figure{
		"latency-cdf":    plot.LatencyCDF("Forwarding latency CDF", samples),
		"latency-hdr":    plot.LatencyHDR("Forwarding latency percentiles", samples),
		"latency-violin": plot.LatencyViolin("Forwarding latency by load", samples),
		"latency-hist":   plot.LatencyHistogram("Latency at 0.8 Mpps", samples["0.8 Mpps"], 30),
	}
	var files []string
	for base, fig := range figures {
		for name := range plot.ExportNamed(base, fig) {
			files = append(files, name)
		}
	}
	sort.Strings(files)
	fmt.Println(strings.Join(files, " "))

	vtopo, err := casestudy.New(casestudy.Virtual)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer vtopo.Close()
	_, err = vtopo.LatencySamples(64, 20_000, 1)
	fmt.Println("vpos:", err)
	// Output:
	// 0.1 Mpps offered: 1000 samples, p50 39.2 µs, p99 42.8 µs
	// 0.8 Mpps offered: 1000 samples, p50 286.0 µs, p99 289.3 µs
	// 1.6 Mpps offered: 1000 samples, p50 568.1 µs, p99 571.6 µs
	// latency-cdf.csv latency-cdf.svg latency-cdf.tex latency-hdr.csv latency-hdr.svg latency-hdr.tex latency-hist.csv latency-hist.svg latency-hist.tex latency-violin.csv latency-violin.svg latency-violin.tex
	// vpos: casestudy: latency measurement unavailable on vpos (no hardware timestamps)
}

// ExampleTopology_ReplayRun records a mixed-size capture in libpcap format,
// reads it back and replays it through the Linux router on both platforms,
// beside synthetic 64 B traffic at the same rate.
func ExampleTopology_ReplayRun() {
	var capture bytes.Buffer
	w := pcap.NewWriter(&capture, 0)
	base := time.Date(2021, 12, 7, 9, 0, 0, 0, time.UTC)
	sizes := []int{64, 576, 1500} // the classic IMIX sizes
	for i := 0; i < 30; i++ {
		frame, err := packet.UDPTemplate{
			SrcMAC: packet.MAC{0x02, 0, 0, 0, 0, 1}, DstMAC: packet.MAC{0x02, 0, 0, 0, 0, 2},
			SrcIP: packet.IPv4Addr{10, 0, 0, 2}, DstIP: packet.IPv4Addr{10, 0, 1, 2},
			SrcPort: uint16(10000 + i), DstPort: 4321,
			FrameSize: sizes[i%len(sizes)],
		}.Build()
		if err == nil {
			err = w.WritePacket(pcap.Packet{Timestamp: base.Add(time.Duration(i) * time.Millisecond), Data: frame})
		}
		if err != nil {
			fmt.Println(err)
			return
		}
	}
	r, err := pcap.NewReader(&capture)
	if err != nil {
		fmt.Println(err)
		return
	}
	packets, err := r.ReadAll()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("capture: %d packets, nanosecond timestamps: %v\n", len(packets), r.Nanoseconds())

	const rate = 30_000.0
	for _, flavor := range []casestudy.Flavor{casestudy.BareMetal, casestudy.Virtual} {
		topo, err := casestudy.New(flavor)
		if err != nil {
			fmt.Println(err)
			return
		}
		replayed, err := topo.ReplayRun(packets, rate, 1)
		if err != nil {
			fmt.Println(err)
			return
		}
		synthetic, err := topo.DirectRun(64, rate, 1)
		topo.Close()
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%-4s replay: rx %.4f Mpps (loss %.2f%%), synthetic: rx %.4f Mpps (loss %.2f%%)\n",
			flavor, replayed.RxMpps, replayed.LossRatio*100, synthetic.RxMpps, synthetic.LossRatio*100)
	}
	// Output:
	// capture: 30 packets, nanosecond timestamps: true
	// pos  replay: rx 0.0300 Mpps (loss 0.00%), synthetic: rx 0.0300 Mpps (loss 0.00%)
	// vpos replay: rx 0.0300 Mpps (loss 0.00%), synthetic: rx 0.0300 Mpps (loss 0.00%)
}
