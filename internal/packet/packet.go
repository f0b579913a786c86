// Package packet implements a small, allocation-conscious packet layer model
// in the style of gopacket: each protocol is a Layer that can decode itself
// from bytes and serialize itself into a buffer. The emulated load generator
// and router exchange real, byte-accurate Ethernet/IPv4/UDP frames built with
// this package, so pcap replay and on-the-wire inspection behave like they
// would against genuine traffic.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// LayerType identifies a protocol layer.
type LayerType uint8

// Known layer types.
const (
	LayerTypeEthernet LayerType = iota + 1
	LayerTypeIPv4
	LayerTypeUDP
	LayerTypePayload
)

// String returns the conventional protocol name.
func (t LayerType) String() string {
	switch t {
	case LayerTypeEthernet:
		return "Ethernet"
	case LayerTypeIPv4:
		return "IPv4"
	case LayerTypeUDP:
		return "UDP"
	case LayerTypePayload:
		return "Payload"
	default:
		return fmt.Sprintf("LayerType(%d)", uint8(t))
	}
}

// Layer is a decoded protocol layer.
type Layer interface {
	// LayerType reports which protocol this layer is.
	LayerType() LayerType
	// DecodeFromBytes parses data into the receiver. It returns the
	// payload bytes that follow this layer's header.
	DecodeFromBytes(data []byte) (payload []byte, err error)
	// AppendHeader appends this layer's wire header to b. payloadLen is
	// the total length of everything that will follow the header, which
	// length and checksum fields depend on.
	AppendHeader(b []byte, payloadLen int) ([]byte, error)
	// HeaderLen reports the encoded header size in bytes.
	HeaderLen() int
}

// Decoding errors.
var (
	ErrTruncated   = errors.New("packet: truncated data")
	ErrBadVersion  = errors.New("packet: unsupported IP version")
	ErrBadChecksum = errors.New("packet: checksum mismatch")
	ErrBadLength   = errors.New("packet: inconsistent length field")
)

// EtherType values understood by the decoder.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeARP  uint16 = 0x0806
)

// IP protocol numbers.
const (
	IPProtoUDP uint8 = 17
	IPProtoTCP uint8 = 6
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// String formats the address in the usual colon-hex notation.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IPv4Addr is a 32-bit IPv4 address.
type IPv4Addr [4]byte

// String formats the address in dotted-quad notation.
func (a IPv4Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// Ethernet is an Ethernet II frame header.
type Ethernet struct {
	Dst, Src  MAC
	EtherType uint16
}

// EthernetHeaderLen is the size of an Ethernet II header without FCS.
const EthernetHeaderLen = 14

// LayerType implements Layer.
func (e *Ethernet) LayerType() LayerType { return LayerTypeEthernet }

// HeaderLen implements Layer.
func (e *Ethernet) HeaderLen() int { return EthernetHeaderLen }

// DecodeFromBytes implements Layer.
func (e *Ethernet) DecodeFromBytes(data []byte) ([]byte, error) {
	if len(data) < EthernetHeaderLen {
		return nil, fmt.Errorf("ethernet: %w (%d bytes)", ErrTruncated, len(data))
	}
	copy(e.Dst[:], data[0:6])
	copy(e.Src[:], data[6:12])
	e.EtherType = binary.BigEndian.Uint16(data[12:14])
	return data[14:], nil
}

// AppendHeader implements Layer.
func (e *Ethernet) AppendHeader(b []byte, payloadLen int) ([]byte, error) {
	b = append(b, e.Dst[:]...)
	b = append(b, e.Src[:]...)
	b = binary.BigEndian.AppendUint16(b, e.EtherType)
	return b, nil
}

// IPv4 is an IPv4 header without options.
type IPv4 struct {
	TOS      uint8
	ID       uint16
	Flags    uint8 // upper 3 bits of the fragment word
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Src, Dst IPv4Addr
	// TotalLength is filled in on decode; on encode it is computed.
	TotalLength uint16
	// Checksum is filled in on decode; on encode it is computed.
	Checksum uint16
}

// IPv4HeaderLen is the size of an option-less IPv4 header.
const IPv4HeaderLen = 20

// LayerType implements Layer.
func (ip *IPv4) LayerType() LayerType { return LayerTypeIPv4 }

// HeaderLen implements Layer.
func (ip *IPv4) HeaderLen() int { return IPv4HeaderLen }

// DecodeFromBytes implements Layer.
func (ip *IPv4) DecodeFromBytes(data []byte) ([]byte, error) {
	if len(data) < IPv4HeaderLen {
		return nil, fmt.Errorf("ipv4: %w (%d bytes)", ErrTruncated, len(data))
	}
	if v := data[0] >> 4; v != 4 {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || len(data) < ihl {
		return nil, fmt.Errorf("ipv4: %w (ihl=%d)", ErrTruncated, ihl)
	}
	if Checksum16(data[:ihl]) != 0 {
		return nil, fmt.Errorf("ipv4: %w", ErrBadChecksum)
	}
	ip.TOS = data[1]
	ip.TotalLength = binary.BigEndian.Uint16(data[2:4])
	ip.ID = binary.BigEndian.Uint16(data[4:6])
	frag := binary.BigEndian.Uint16(data[6:8])
	ip.Flags = uint8(frag >> 13)
	ip.FragOff = frag & 0x1fff
	ip.TTL = data[8]
	ip.Protocol = data[9]
	ip.Checksum = binary.BigEndian.Uint16(data[10:12])
	copy(ip.Src[:], data[12:16])
	copy(ip.Dst[:], data[16:20])
	if int(ip.TotalLength) < ihl || int(ip.TotalLength) > len(data) {
		return nil, fmt.Errorf("ipv4: %w (total=%d have=%d)", ErrBadLength, ip.TotalLength, len(data))
	}
	return data[ihl:ip.TotalLength], nil
}

// AppendHeader implements Layer.
func (ip *IPv4) AppendHeader(b []byte, payloadLen int) ([]byte, error) {
	total := IPv4HeaderLen + payloadLen
	if total > 0xffff {
		return nil, fmt.Errorf("ipv4: payload too large (%d bytes)", payloadLen)
	}
	start := len(b)
	b = append(b, 0x45, ip.TOS)
	b = binary.BigEndian.AppendUint16(b, uint16(total))
	b = binary.BigEndian.AppendUint16(b, ip.ID)
	b = binary.BigEndian.AppendUint16(b, uint16(ip.Flags)<<13|ip.FragOff&0x1fff)
	b = append(b, ip.TTL, ip.Protocol, 0, 0) // checksum placeholder
	b = append(b, ip.Src[:]...)
	b = append(b, ip.Dst[:]...)
	cs := Checksum16(b[start:])
	binary.BigEndian.PutUint16(b[start+10:], cs)
	return b, nil
}

// UDP is a UDP header.
type UDP struct {
	SrcPort, DstPort uint16
	// Length and Checksum are filled in on decode; on encode they are
	// computed (checksum over the IPv4 pseudo-header when encoded via
	// Serialize, else zero = disabled).
	Length   uint16
	Checksum uint16
}

// UDPHeaderLen is the size of a UDP header.
const UDPHeaderLen = 8

// LayerType implements Layer.
func (u *UDP) LayerType() LayerType { return LayerTypeUDP }

// HeaderLen implements Layer.
func (u *UDP) HeaderLen() int { return UDPHeaderLen }

// DecodeFromBytes implements Layer.
func (u *UDP) DecodeFromBytes(data []byte) ([]byte, error) {
	if len(data) < UDPHeaderLen {
		return nil, fmt.Errorf("udp: %w (%d bytes)", ErrTruncated, len(data))
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:2])
	u.DstPort = binary.BigEndian.Uint16(data[2:4])
	u.Length = binary.BigEndian.Uint16(data[4:6])
	u.Checksum = binary.BigEndian.Uint16(data[6:8])
	if int(u.Length) < UDPHeaderLen || int(u.Length) > len(data) {
		return nil, fmt.Errorf("udp: %w (len=%d have=%d)", ErrBadLength, u.Length, len(data))
	}
	return data[UDPHeaderLen:u.Length], nil
}

// AppendHeader implements Layer.
func (u *UDP) AppendHeader(b []byte, payloadLen int) ([]byte, error) {
	length := UDPHeaderLen + payloadLen
	if length > 0xffff {
		return nil, fmt.Errorf("udp: payload too large (%d bytes)", payloadLen)
	}
	b = binary.BigEndian.AppendUint16(b, u.SrcPort)
	b = binary.BigEndian.AppendUint16(b, u.DstPort)
	b = binary.BigEndian.AppendUint16(b, uint16(length))
	b = binary.BigEndian.AppendUint16(b, 0) // checksum disabled (legal for UDP/IPv4)
	return b, nil
}

// Payload is opaque application data.
type Payload []byte

// LayerType implements Layer.
func (p *Payload) LayerType() LayerType { return LayerTypePayload }

// HeaderLen implements Layer.
func (p *Payload) HeaderLen() int { return len(*p) }

// DecodeFromBytes implements Layer.
func (p *Payload) DecodeFromBytes(data []byte) ([]byte, error) {
	*p = append((*p)[:0], data...)
	return nil, nil
}

// AppendHeader implements Layer.
func (p *Payload) AppendHeader(b []byte, payloadLen int) ([]byte, error) {
	return append(b, *p...), nil
}

// Checksum16 computes the RFC 1071 Internet checksum over data.
func Checksum16(data []byte) uint16 {
	var sum uint32
	for len(data) >= 2 {
		sum += uint32(binary.BigEndian.Uint16(data))
		data = data[2:]
	}
	if len(data) == 1 {
		sum += uint32(data[0]) << 8
	}
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}

// Serialize encodes layers outermost-first into a single frame. Each layer's
// length-dependent fields are computed from the sizes of the layers that
// follow it.
func Serialize(layers ...Layer) ([]byte, error) {
	return SerializeTo(nil, layers...)
}

// SerializeTo is like Serialize but appends to b, enabling buffer reuse on
// the load-generator hot path.
func SerializeTo(b []byte, layers ...Layer) ([]byte, error) {
	// Compute the payload size seen by each layer.
	suffix := make([]int, len(layers)+1)
	for i := len(layers) - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + layers[i].HeaderLen()
	}
	var err error
	for i, l := range layers {
		b, err = l.AppendHeader(b, suffix[i+1])
		if err != nil {
			return nil, fmt.Errorf("packet: serializing %v: %w", l.LayerType(), err)
		}
	}
	return b, nil
}

// Packet is a decoded frame: the chain of parsed layers plus the raw bytes.
type Packet struct {
	Data   []byte
	Eth    Ethernet
	IP     IPv4
	UDP    UDP
	Pay    []byte
	Layers []LayerType
}

// Decode parses an Ethernet frame as far as it understands, in the spirit of
// gopacket's DecodingLayerParser: no allocation beyond the returned struct,
// stopping gracefully at unknown protocols.
func Decode(data []byte) (*Packet, error) {
	p := &Packet{Data: data}
	return p, p.DecodeInto(data)
}

// DecodeInto re-parses data into an existing Packet, reusing its storage.
func (p *Packet) DecodeInto(data []byte) error {
	p.Data = data
	p.Layers = p.Layers[:0]
	p.Pay = nil
	rest, err := p.Eth.DecodeFromBytes(data)
	if err != nil {
		return err
	}
	p.Layers = append(p.Layers, LayerTypeEthernet)
	if p.Eth.EtherType != EtherTypeIPv4 {
		p.Pay = rest
		return nil
	}
	rest, err = p.IP.DecodeFromBytes(rest)
	if err != nil {
		return err
	}
	p.Layers = append(p.Layers, LayerTypeIPv4)
	if p.IP.Protocol != IPProtoUDP {
		p.Pay = rest
		return nil
	}
	rest, err = p.UDP.DecodeFromBytes(rest)
	if err != nil {
		return err
	}
	p.Layers = append(p.Layers, LayerTypeUDP)
	p.Pay = rest
	return nil
}

// Has reports whether the packet contains the given layer.
func (p *Packet) Has(t LayerType) bool {
	for _, l := range p.Layers {
		if l == t {
			return true
		}
	}
	return false
}

// WireOverheadBytes is the per-frame overhead on the physical medium that is
// not part of the Ethernet frame itself: 7 B preamble, 1 B SFD, 12 B
// inter-frame gap. It determines the line-rate packet ceiling: a 10 Gbit/s
// port carries at most rate/((size+20)*8) packets per second.
const WireOverheadBytes = 20

// MinFrameSize and MaxFrameSize bound legal Ethernet frame sizes (without
// FCS, which the emulation does not model — matching what software packet
// generators report).
const (
	MinFrameSize = 60
	MaxFrameSize = 1514
)
