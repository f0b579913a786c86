// Pcap replay: the second traffic source the paper names. This program
// records a synthetic mixed-size capture to a real libpcap file, reads it
// back, and replays it through the Linux-router DuT on both platforms,
// comparing the replayed throughput with synthetic generation at the same
// rate.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"pos/internal/casestudy"
	"pos/internal/packet"
	"pos/internal/pcap"
)

func main() {
	log.SetFlags(0)
	dir, err := os.MkdirTemp("", "pos-pcapreplay-*")
	if err != nil {
		log.Fatal(err)
	}
	capPath := filepath.Join(dir, "mixed.pcap")

	// 1. Record: a capture alternating IMIX-ish frame sizes.
	if err := record(capPath); err != nil {
		log.Fatal(err)
	}

	// 2. Read it back with the pcap reader.
	f, err := os.Open(capPath)
	if err != nil {
		log.Fatal(err)
	}
	r, err := pcap.NewReader(f)
	if err != nil {
		log.Fatal(err)
	}
	packets, err := r.ReadAll()
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("capture %s: %d packets, nanosecond timestamps: %v\n",
		capPath, len(packets), r.Nanoseconds())

	// 3. Replay through the DuT on both platforms.
	for _, flavor := range []casestudy.Flavor{casestudy.BareMetal, casestudy.Virtual} {
		topo, err := casestudy.New(flavor)
		if err != nil {
			log.Fatal(err)
		}
		rate := 30_000.0
		replayed, err := topo.ReplayRun(packets, rate, 1)
		if err != nil {
			log.Fatal(err)
		}
		synthetic, err := topo.DirectRun(64, rate, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-5s replay  at %.0f pps: rx %.4f Mpps (loss %.2f%%)\n",
			flavor, rate, replayed.RxMpps, replayed.LossRatio*100)
		fmt.Printf("%-5s synth   at %.0f pps: rx %.4f Mpps (loss %.2f%%)\n",
			flavor, rate, synthetic.RxMpps, synthetic.LossRatio*100)
		topo.Close()
	}
}

// record writes a small mixed-size capture.
func record(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := pcap.NewWriter(f, 0)
	base := time.Date(2021, 12, 7, 9, 0, 0, 0, time.UTC)
	sizes := []int{64, 576, 1500} // classic IMIX mix
	for i := 0; i < 30; i++ {
		tpl := packet.UDPTemplate{
			SrcMAC: packet.MAC{0x02, 0, 0, 0, 0, 1}, DstMAC: packet.MAC{0x02, 0, 0, 0, 0, 2},
			SrcIP: packet.IPv4Addr{10, 0, 0, 2}, DstIP: packet.IPv4Addr{10, 0, 1, 2},
			SrcPort: uint16(10000 + i), DstPort: 4321,
			FrameSize: sizes[i%len(sizes)],
		}
		frame, err := tpl.Build()
		if err != nil {
			return err
		}
		err = w.WritePacket(pcap.Packet{
			Timestamp: base.Add(time.Duration(i) * time.Millisecond),
			Data:      frame,
		})
		if err != nil {
			return err
		}
	}
	return nil
}
