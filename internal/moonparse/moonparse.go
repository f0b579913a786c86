// Package moonparse parses MoonGen-style statistics logs — the textual
// output the loadgen package emits and the format the pos paper's plotting
// scripts consume ("We integrated a parser for MoonGen's output into our
// plotting scripts"). It extracts per-second throughput samples, run totals,
// and latency summaries, tolerating interleaved unrelated log lines the way
// a real experiment log requires. The parser works in place on the log's
// bytes and does not retain them.
package moonparse

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// Direction distinguishes transmit and receive counters.
type Direction string

// Directions found in MoonGen logs.
const (
	TX Direction = "TX"
	RX Direction = "RX"
)

// Sample is one per-second throughput line.
type Sample struct {
	Device    int
	Direction Direction
	Mpps      float64
	Mbps      float64
	// MbpsFramed includes preamble/IFG framing overhead.
	MbpsFramed float64
}

// Total is a run-total line.
type Total struct {
	Device    int
	Direction Direction
	Mpps      float64
	StdDev    float64
	Packets   int64
	Bytes     int64
}

// Latency is the latency summary line.
type Latency struct {
	AvgNs, MinNs, MaxNs float64
	Samples             int64
}

// Report is a fully parsed MoonGen log.
type Report struct {
	Samples []Sample
	Totals  []Total
	// Latency is nil when the log carries no latency line (e.g. vpos).
	Latency *Latency
}

// ErrNoTotals marks logs that contain no total lines at all — almost
// certainly not a MoonGen log.
var ErrNoTotals = errors.New("moonparse: no total lines found")

// maxLineLen is the longest line a log may carry, terminator excluded —
// the token limit of the line scanner this parser used to run on.
const maxLineLen = 1<<20 - 1

// ParseBytes parses a MoonGen log held in memory. It walks data in place —
// no line is copied and nothing in the report refers to data afterwards —
// so the evaluation phase can hand it each artifact exactly as read.
//
// The per-line hot path is a hand-rolled prefix scanner that accepts exactly
// the lines the original regexps accept; those live on in moonparse_test.go
// as the reference the differential test and fuzzer hold it equal to.
func ParseBytes(data []byte) (*Report, error) {
	rep := &Report{}
	for lineNo := 0; len(data) > 0; lineNo++ {
		var line []byte
		line, data, _ = bytes.Cut(data, newline)
		if len(line) > maxLineLen {
			return nil, fmt.Errorf("moonparse: line %d: %w", lineNo, bufio.ErrTooLong)
		}
		scanLine(rep, bytes.TrimSpace(line))
	}
	if len(rep.Totals) == 0 {
		return nil, ErrNoTotals
	}
	return rep, nil
}

var newline = []byte{'\n'}

// Parse reads a MoonGen log from r to its end and parses it with ParseBytes.
func Parse(r io.Reader) (*Report, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("moonparse: read: %w", err)
	}
	return ParseBytes(data)
}

// ParseString is ParseBytes over a log held as a string.
func ParseString(s string) (*Report, error) { return ParseBytes([]byte(s)) }

// scanLine dispatches one trimmed line. Totals and samples share the head
// "[Device: id=N] DIR: X Mpps"; what follows — " (StdDev" vs ", " — is
// disjoint, so the regexp path's total-before-sample precedence is
// preserved structurally.
func scanLine(rep *Report, line []byte) {
	if dev, dir, mpps, rest, ok := scanDeviceHead(line); ok {
		if tail, ok := cutPrefix(rest, " (StdDev "); ok {
			std, tail, ok := scanNumber(tail)
			if !ok {
				return
			}
			tail, ok = cutPrefix(tail, "), total ")
			if !ok {
				return
			}
			pkts, tail, ok := scanDigits(tail)
			if !ok {
				return
			}
			tail, ok = cutPrefix(tail, " packets, ")
			if !ok {
				return
			}
			octets, tail, ok := scanDigits(tail)
			if !ok {
				return
			}
			if _, ok = cutPrefix(tail, " bytes"); !ok {
				return
			}
			rep.Totals = append(rep.Totals, Total{
				Device:    dev,
				Direction: dir,
				Mpps:      atof(mpps),
				StdDev:    atof(std),
				Packets:   atoi64(pkts),
				Bytes:     atoi64(octets),
			})
			return
		}
		if tail, ok := cutPrefix(rest, ", "); ok {
			mbps, tail, ok := scanNumber(tail)
			if !ok {
				return
			}
			tail, ok = cutPrefix(tail, " Mbit/s (")
			if !ok {
				return
			}
			framed, tail, ok := scanNumber(tail)
			if !ok {
				return
			}
			if _, ok = cutPrefix(tail, " Mbit/s with framing)"); !ok {
				return
			}
			rep.Samples = append(rep.Samples, Sample{
				Device:     dev,
				Direction:  dir,
				Mpps:       atof(mpps),
				Mbps:       atof(mbps),
				MbpsFramed: atof(framed),
			})
		}
		return
	}
	if tail, ok := cutPrefix(line, "[Latency] avg: "); ok {
		avg, tail, ok := scanNumber(tail)
		if !ok {
			return
		}
		tail, ok = cutPrefix(tail, " ns, min: ")
		if !ok {
			return
		}
		min, tail, ok := scanNumber(tail)
		if !ok {
			return
		}
		tail, ok = cutPrefix(tail, " ns, max: ")
		if !ok {
			return
		}
		max, tail, ok := scanNumber(tail)
		if !ok {
			return
		}
		tail, ok = cutPrefix(tail, " ns, samples: ")
		if !ok {
			return
		}
		n, _, ok := scanDigits(tail)
		if !ok {
			return
		}
		rep.Latency = &Latency{
			AvgNs:   atof(avg),
			MinNs:   atof(min),
			MaxNs:   atof(max),
			Samples: atoi64(n),
		}
	}
}

// scanDeviceHead parses "[Device: id=N] DIR: X Mpps", the head shared by
// total and sample lines, returning the unconsumed tail.
func scanDeviceHead(line []byte) (dev int, dir Direction, mpps, rest []byte, ok bool) {
	s, ok := cutPrefix(line, "[Device: id=")
	if !ok {
		return 0, "", nil, nil, false
	}
	d, s, ok := scanDigits(s)
	if !ok {
		return 0, "", nil, nil, false
	}
	s, ok = cutPrefix(s, "] ")
	if !ok {
		return 0, "", nil, nil, false
	}
	if s, ok = cutPrefix(s, "TX"); ok {
		dir = TX
	} else if s, ok = cutPrefix(s, "RX"); ok {
		dir = RX
	} else {
		return 0, "", nil, nil, false
	}
	s, ok = cutPrefix(s, ": ")
	if !ok {
		return 0, "", nil, nil, false
	}
	mpps, s, ok = scanNumber(s)
	if !ok {
		return 0, "", nil, nil, false
	}
	s, ok = cutPrefix(s, " Mpps")
	if !ok {
		return 0, "", nil, nil, false
	}
	return atoi(d), dir, mpps, s, true
}

// cutPrefix is bytes.CutPrefix against a string literal.
func cutPrefix(s []byte, prefix string) ([]byte, bool) {
	if len(s) >= len(prefix) && string(s[:len(prefix)]) == prefix {
		return s[len(prefix):], true
	}
	return s, false
}

// scanDigits consumes the maximal run of [0-9] — the regexps' (\d+).
func scanDigits(s []byte) (digits, rest []byte, ok bool) {
	i := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	return s[:i], s[i:], i > 0
}

// scanNumber consumes the maximal run of [0-9.] — the regexps' ([\d.]+),
// including degenerate tokens like "." that atof then maps to 0 exactly as
// the regexp path did.
func scanNumber(s []byte) (number, rest []byte, ok bool) {
	i := 0
	for i < len(s) && (s[i] == '.' || (s[i] >= '0' && s[i] <= '9')) {
		i++
	}
	return s[:i], s[i:], i > 0
}

// Total returns the run total for a direction, preferring the conventional
// device (0 for TX, 1 for RX) and falling back to the first match.
func (r *Report) Total(dir Direction) (Total, bool) {
	wantDev := 0
	if dir == RX {
		wantDev = 1
	}
	var fallback *Total
	for i := range r.Totals {
		t := &r.Totals[i]
		if t.Direction != dir {
			continue
		}
		if t.Device == wantDev {
			return *t, true
		}
		if fallback == nil {
			fallback = t
		}
	}
	if fallback != nil {
		return *fallback, true
	}
	return Total{}, false
}

// RxMpps is a convenience accessor for the received throughput total.
func (r *Report) RxMpps() float64 {
	t, ok := r.Total(RX)
	if !ok {
		return 0
	}
	return t.Mpps
}

// TxMpps is a convenience accessor for the transmitted throughput total.
func (r *Report) TxMpps() float64 {
	t, ok := r.Total(TX)
	if !ok {
		return 0
	}
	return t.Mpps
}

// SampleSeries extracts the per-second Mpps series for one direction.
func (r *Report) SampleSeries(dir Direction) []float64 {
	var out []float64
	for _, s := range r.Samples {
		if s.Direction == dir {
			out = append(out, s.Mpps)
		}
	}
	return out
}

// The conversions drop strconv's error on purpose: the grammar admits
// tokens strconv rejects ("1.2.3", 30 digits), and they read as whatever
// strconv returns beside the error, as they always have.

func atoi(s []byte) int {
	v, _ := strconv.Atoi(string(s))
	return v
}

func atoi64(s []byte) int64 {
	v, _ := strconv.ParseInt(string(s), 10, 64)
	return v
}

func atof(s []byte) float64 {
	v, _ := strconv.ParseFloat(string(s), 64)
	return v
}
