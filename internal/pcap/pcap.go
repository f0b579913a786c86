// Package pcap reads and writes libpcap capture files (the classic
// tcpdump format, magic 0xa1b2c3d4 with microsecond timestamps and
// 0xa1b23c4d with nanosecond timestamps). The emulated load generator can
// replay recorded traffic from these files — one of the two traffic sources
// the pos paper names — and capture points in the emulated testbed can dump
// traffic for offline inspection with standard tools.
package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Magic numbers for the classic pcap format.
const (
	MagicMicroseconds = 0xa1b2c3d4
	MagicNanoseconds  = 0xa1b23c4d
)

// LinkTypeEthernet is the DLT value for Ethernet captures.
const LinkTypeEthernet = 1

const (
	versionMajor = 2
	versionMinor = 4
	headerLen    = 24
	recordLen    = 16
)

// Packet is one captured record.
type Packet struct {
	// Timestamp of the capture.
	Timestamp time.Time
	// Data is the captured bytes (possibly truncated to SnapLen).
	Data []byte
	// OrigLen is the original length on the wire.
	OrigLen int
}

// Errors returned by the reader.
var (
	ErrBadMagic   = errors.New("pcap: bad magic number")
	ErrTruncated  = errors.New("pcap: truncated file")
	ErrBadVersion = errors.New("pcap: unsupported version")
)

// Writer writes a pcap file.
type Writer struct {
	w       io.Writer
	snapLen uint32
	nanos   bool
	wrote   bool
}

// NewWriter returns a Writer emitting nanosecond-resolution captures with
// the given snap length (0 means 65535).
func NewWriter(w io.Writer, snapLen uint32) *Writer {
	if snapLen == 0 {
		snapLen = 65535
	}
	return &Writer{w: w, snapLen: snapLen, nanos: true}
}

// writeHeader emits the global file header.
func (w *Writer) writeHeader() error {
	var hdr [headerLen]byte
	magic := uint32(MagicMicroseconds)
	if w.nanos {
		magic = MagicNanoseconds
	}
	binary.LittleEndian.PutUint32(hdr[0:4], magic)
	binary.LittleEndian.PutUint16(hdr[4:6], versionMajor)
	binary.LittleEndian.PutUint16(hdr[6:8], versionMinor)
	// thiszone and sigfigs stay zero.
	binary.LittleEndian.PutUint32(hdr[16:20], w.snapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], LinkTypeEthernet)
	_, err := w.w.Write(hdr[:])
	return err
}

// WritePacket appends one record. The first call also emits the file header.
func (w *Writer) WritePacket(p Packet) error {
	if !w.wrote {
		if err := w.writeHeader(); err != nil {
			return err
		}
		w.wrote = true
	}
	data := p.Data
	if uint32(len(data)) > w.snapLen {
		data = data[:w.snapLen]
	}
	origLen := p.OrigLen
	if origLen == 0 {
		origLen = len(p.Data)
	}
	var rec [recordLen]byte
	sec := p.Timestamp.Unix()
	var sub int64
	if w.nanos {
		sub = int64(p.Timestamp.Nanosecond())
	} else {
		sub = int64(p.Timestamp.Nanosecond() / 1000)
	}
	binary.LittleEndian.PutUint32(rec[0:4], uint32(sec))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(sub))
	binary.LittleEndian.PutUint32(rec[8:12], uint32(len(data)))
	binary.LittleEndian.PutUint32(rec[12:16], uint32(origLen))
	if _, err := w.w.Write(rec[:]); err != nil {
		return err
	}
	_, err := w.w.Write(data)
	return err
}

// Flush ensures the header has been written even for empty captures.
func (w *Writer) Flush() error {
	if !w.wrote {
		if err := w.writeHeader(); err != nil {
			return err
		}
		w.wrote = true
	}
	return nil
}

// Reader reads a pcap file.
type Reader struct {
	r        io.Reader
	nanos    bool
	swapped  bool
	snapLen  uint32
	linkType uint32
}

// NewReader parses the global header and returns a Reader positioned at the
// first record.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	rd := &Reader{r: r}
	magic := binary.LittleEndian.Uint32(hdr[0:4])
	switch magic {
	case MagicMicroseconds:
	case MagicNanoseconds:
		rd.nanos = true
	case swap32(MagicMicroseconds):
		rd.swapped = true
	case swap32(MagicNanoseconds):
		rd.swapped = true
		rd.nanos = true
	default:
		return nil, fmt.Errorf("%w: %#08x", ErrBadMagic, magic)
	}
	order := rd.order()
	major := order.Uint16(hdr[4:6])
	minor := order.Uint16(hdr[6:8])
	if major != versionMajor || minor != versionMinor {
		return nil, fmt.Errorf("%w: %d.%d", ErrBadVersion, major, minor)
	}
	rd.snapLen = order.Uint32(hdr[16:20])
	rd.linkType = order.Uint32(hdr[20:24])
	return rd, nil
}

func (r *Reader) order() binary.ByteOrder {
	if r.swapped {
		return binary.BigEndian
	}
	return binary.LittleEndian
}

func swap32(v uint32) uint32 {
	return v<<24 | (v&0xff00)<<8 | (v>>8)&0xff00 | v>>24
}

// LinkType returns the capture's data-link type.
func (r *Reader) LinkType() uint32 { return r.linkType }

// Nanoseconds reports whether timestamps carry nanosecond resolution.
func (r *Reader) Nanoseconds() bool { return r.nanos }

// ReadPacket returns the next record, or io.EOF at the end of the file.
func (r *Reader) ReadPacket() (Packet, error) {
	var rec [recordLen]byte
	if _, err := io.ReadFull(r.r, rec[:]); err != nil {
		if err == io.EOF {
			return Packet{}, io.EOF
		}
		return Packet{}, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	order := r.order()
	sec := order.Uint32(rec[0:4])
	sub := order.Uint32(rec[4:8])
	capLen := order.Uint32(rec[8:12])
	origLen := order.Uint32(rec[12:16])
	if capLen > r.snapLen && r.snapLen > 0 {
		return Packet{}, fmt.Errorf("pcap: record length %d exceeds snaplen %d", capLen, r.snapLen)
	}
	data := make([]byte, capLen)
	if _, err := io.ReadFull(r.r, data); err != nil {
		return Packet{}, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	nanos := int64(sub)
	if !r.nanos {
		nanos *= 1000
	}
	return Packet{
		Timestamp: time.Unix(int64(sec), nanos).UTC(),
		Data:      data,
		OrigLen:   int(origLen),
	}, nil
}

// ReadAll drains the remaining records.
func (r *Reader) ReadAll() ([]Packet, error) {
	var pkts []Packet
	for {
		p, err := r.ReadPacket()
		if err == io.EOF {
			return pkts, nil
		}
		if err != nil {
			return pkts, err
		}
		pkts = append(pkts, p)
	}
}
