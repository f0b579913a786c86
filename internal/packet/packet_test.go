package packet

import (
	"bytes"
	"testing"
	"testing/quick"
)

func sampleTemplate(size int) UDPTemplate {
	return UDPTemplate{
		SrcMAC:    MAC{0x02, 0, 0, 0, 0, 1},
		DstMAC:    MAC{0x02, 0, 0, 0, 0, 2},
		SrcIP:     IPv4Addr{10, 0, 0, 1},
		DstIP:     IPv4Addr{10, 0, 1, 1},
		SrcPort:   1234,
		DstPort:   4321,
		FrameSize: size,
	}
}

func TestBuildAndDecodeRoundTrip(t *testing.T) {
	for _, size := range []int{60, 64, 128, 512, 1500, 1514} {
		data, err := sampleTemplate(size).Build()
		if err != nil {
			t.Fatalf("Build(%d): %v", size, err)
		}
		if len(data) != size {
			t.Fatalf("frame size = %d, want %d", len(data), size)
		}
		p, err := Decode(data)
		if err != nil {
			t.Fatalf("Decode(%d): %v", size, err)
		}
		if !p.Has(LayerTypeUDP) {
			t.Fatalf("layers = %v, want UDP present", p.Layers)
		}
		if p.IP.Src != (IPv4Addr{10, 0, 0, 1}) || p.IP.Dst != (IPv4Addr{10, 0, 1, 1}) {
			t.Errorf("IP %v -> %v", p.IP.Src, p.IP.Dst)
		}
		if p.UDP.SrcPort != 1234 || p.UDP.DstPort != 4321 {
			t.Errorf("ports %d -> %d", p.UDP.SrcPort, p.UDP.DstPort)
		}
		wantPay := size - EthernetHeaderLen - IPv4HeaderLen - UDPHeaderLen
		if len(p.Pay) != wantPay {
			t.Errorf("payload = %d bytes, want %d", len(p.Pay), wantPay)
		}
	}
}

func TestBuildRejectsBadSizes(t *testing.T) {
	if _, err := sampleTemplate(10).Build(); err == nil {
		t.Error("Build accepted a frame smaller than its headers")
	}
	if _, err := sampleTemplate(MaxFrameSize + 1).Build(); err == nil {
		t.Error("Build accepted an oversized frame")
	}
}

func TestIPv4ChecksumValidAfterSerialize(t *testing.T) {
	data, err := sampleTemplate(100).Build()
	if err != nil {
		t.Fatal(err)
	}
	ipHdr := data[EthernetHeaderLen : EthernetHeaderLen+IPv4HeaderLen]
	if got := Checksum16(ipHdr); got != 0 {
		t.Errorf("checksum over header = %#04x, want 0", got)
	}
}

func TestDecodeRejectsCorruptedChecksum(t *testing.T) {
	data, err := sampleTemplate(100).Build()
	if err != nil {
		t.Fatal(err)
	}
	data[EthernetHeaderLen+8] ^= 0xff // flip TTL without fixing checksum
	if _, err := Decode(data); err == nil {
		t.Error("Decode accepted corrupted IPv4 header")
	}
}

func TestDecodeTruncated(t *testing.T) {
	data, err := sampleTemplate(100).Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 5, EthernetHeaderLen + 3, EthernetHeaderLen + IPv4HeaderLen + 2} {
		if _, err := Decode(data[:cut]); err == nil {
			t.Errorf("Decode accepted %d-byte truncation", cut)
		}
	}
}

func TestDecodeNonIPStopsAtEthernet(t *testing.T) {
	eth := &Ethernet{EtherType: EtherTypeARP}
	data, err := Serialize(eth, &Payload{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if p.Has(LayerTypeIPv4) {
		t.Error("decoded IPv4 from an ARP frame")
	}
	if !bytes.Equal(p.Pay, []byte{1, 2, 3}) {
		t.Errorf("payload = %v", p.Pay)
	}
}

func TestDecodeNonUDPStopsAtIPv4(t *testing.T) {
	data, err := Serialize(
		&Ethernet{EtherType: EtherTypeIPv4},
		&IPv4{TTL: 64, Protocol: IPProtoTCP, Src: IPv4Addr{1, 1, 1, 1}, Dst: IPv4Addr{2, 2, 2, 2}},
		&Payload{0xde, 0xad},
	)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !p.Has(LayerTypeIPv4) || p.Has(LayerTypeUDP) {
		t.Errorf("layers = %v, want Ethernet+IPv4 only", p.Layers)
	}
}

func TestDecodeIntoReusesStorage(t *testing.T) {
	a, _ := sampleTemplate(64).Build()
	b, _ := sampleTemplate(128).Build()
	var p Packet
	if err := p.DecodeInto(a); err != nil {
		t.Fatal(err)
	}
	if err := p.DecodeInto(b); err != nil {
		t.Fatal(err)
	}
	if len(p.Layers) != 3 {
		t.Errorf("layers = %v", p.Layers)
	}
	if p.IP.TotalLength != 128-EthernetHeaderLen {
		t.Errorf("TotalLength = %d", p.IP.TotalLength)
	}
}

func TestChecksum16KnownVector(t *testing.T) {
	// Example from RFC 1071 §3: the checksum of this sequence is 0xddf2
	// (the complement of 0x220d).
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum16(data); got != ^uint16(0xddf2) {
		t.Errorf("Checksum16 = %#04x, want %#04x", got, ^uint16(0xddf2))
	}
}

func TestChecksum16OddLength(t *testing.T) {
	// Odd-length input pads with a zero byte.
	even := Checksum16([]byte{0x12, 0x34, 0xab, 0x00})
	odd := Checksum16([]byte{0x12, 0x34, 0xab})
	if even != odd {
		t.Errorf("odd padding mismatch: %#04x vs %#04x", odd, even)
	}
}

func TestLineRatePPS(t *testing.T) {
	// 10GbE with 64 B frames: the classic 14.88 Mpps.
	got := LineRatePPS(10e9, 64)
	if got < 14.87e6 || got > 14.89e6 {
		t.Errorf("64B line rate = %v, want ~14.88M", got)
	}
	// 1500 B frames: ~0.8223 Mpps — the paper's Fig. 3a ceiling.
	got = LineRatePPS(10e9, 1500)
	if got < 0.82e6 || got > 0.83e6 {
		t.Errorf("1500B line rate = %v, want ~0.822M", got)
	}
}

func TestLayerTypeString(t *testing.T) {
	for _, tc := range []struct {
		t    LayerType
		want string
	}{
		{LayerTypeEthernet, "Ethernet"},
		{LayerTypeIPv4, "IPv4"},
		{LayerTypeUDP, "UDP"},
		{LayerTypePayload, "Payload"},
		{LayerType(99), "LayerType(99)"},
	} {
		if got := tc.t.String(); got != tc.want {
			t.Errorf("String(%d) = %q, want %q", tc.t, got, tc.want)
		}
	}
}

func TestAddressFormatting(t *testing.T) {
	if s := (MAC{0xaa, 0xbb, 0xcc, 0, 1, 2}).String(); s != "aa:bb:cc:00:01:02" {
		t.Errorf("MAC = %q", s)
	}
	if s := (IPv4Addr{192, 168, 0, 1}).String(); s != "192.168.0.1" {
		t.Errorf("IPv4Addr = %q", s)
	}
}

// Property: any frame built from a valid template decodes back to the same
// addresses, ports and size.
func TestRoundTripProperty(t *testing.T) {
	prop := func(srcIP, dstIP [4]byte, srcPort, dstPort uint16, sizeSeed uint16) bool {
		size := MinFrameSize + int(sizeSeed)%(MaxFrameSize-MinFrameSize+1)
		tpl := UDPTemplate{
			SrcIP: srcIP, DstIP: dstIP,
			SrcPort: srcPort, DstPort: dstPort,
			FrameSize: size,
		}
		data, err := tpl.Build()
		if err != nil || len(data) != size {
			return false
		}
		p, err := Decode(data)
		if err != nil {
			return false
		}
		return p.IP.Src == IPv4Addr(srcIP) && p.IP.Dst == IPv4Addr(dstIP) &&
			p.UDP.SrcPort == srcPort && p.UDP.DstPort == dstPort
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: decoding arbitrary bytes never panics.
func TestDecodeNeverPanicsProperty(t *testing.T) {
	prop := func(data []byte) bool {
		defer func() {
			if recover() != nil {
				t.Fatal("Decode panicked")
			}
		}()
		_, _ = Decode(data)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSerializeUDP64(b *testing.B) {
	tpl := sampleTemplate(64)
	eth := &Ethernet{Dst: tpl.DstMAC, Src: tpl.SrcMAC, EtherType: EtherTypeIPv4}
	ip := &IPv4{TTL: 64, Protocol: IPProtoUDP, Src: tpl.SrcIP, Dst: tpl.DstIP}
	udp := &UDP{SrcPort: tpl.SrcPort, DstPort: tpl.DstPort}
	pay := make(Payload, 64-EthernetHeaderLen-IPv4HeaderLen-UDPHeaderLen)
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = SerializeTo(buf[:0], eth, ip, udp, &pay)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeUDP64(b *testing.B) {
	data, err := sampleTemplate(64).Build()
	if err != nil {
		b.Fatal(err)
	}
	var p Packet
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := p.DecodeInto(data); err != nil {
			b.Fatal(err)
		}
	}
}
