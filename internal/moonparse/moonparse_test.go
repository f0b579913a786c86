package moonparse

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"regexp"
	"strings"
	"testing"
	"testing/quick"

	"pos/internal/loadgen"
	"pos/internal/netem"
	"pos/internal/packet"
	"pos/internal/sim"
)

const sampleLog = `device config done
[Device: id=0] TX: 0.1000 Mpps, 51.20 Mbit/s (67.20 Mbit/s with framing)
[Device: id=1] RX: 0.0990 Mpps, 50.69 Mbit/s (66.53 Mbit/s with framing)
[Device: id=0] TX: 0.1000 Mpps, 51.20 Mbit/s (67.20 Mbit/s with framing)
[Device: id=1] RX: 0.1000 Mpps, 51.20 Mbit/s (67.20 Mbit/s with framing)
some unrelated stderr noise
[Device: id=0] TX: 0.1000 Mpps (StdDev 0.0002), total 200000 packets, 12800000 bytes
[Device: id=1] RX: 0.0995 Mpps (StdDev 0.0005), total 199000 packets, 12736000 bytes
[Latency] avg: 12345 ns, min: 9000 ns, max: 40000 ns, samples: 1000
done
`

func TestParseFullLog(t *testing.T) {
	rep, err := ParseBytes([]byte(sampleLog))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Samples) != 4 {
		t.Errorf("samples = %d, want 4", len(rep.Samples))
	}
	if len(rep.Totals) != 2 {
		t.Errorf("totals = %d, want 2", len(rep.Totals))
	}
	tx, ok := rep.Total(TX)
	if !ok || tx.Packets != 200000 || tx.Mpps != 0.1 {
		t.Errorf("TX total = %+v ok=%v", tx, ok)
	}
	rx, ok := rep.Total(RX)
	if !ok || rx.Packets != 199000 || rx.Bytes != 12736000 {
		t.Errorf("RX total = %+v ok=%v", rx, ok)
	}
	if rep.Latency == nil {
		t.Fatal("latency missing")
	}
	if rep.Latency.AvgNs != 12345 || rep.Latency.Samples != 1000 {
		t.Errorf("latency = %+v", rep.Latency)
	}
	if got := rep.RxMpps(); got != 0.0995 {
		t.Errorf("RxMpps = %v", got)
	}
	if got := rep.TxMpps(); got != 0.1 {
		t.Errorf("TxMpps = %v", got)
	}
}

func TestSampleSeries(t *testing.T) {
	rep, err := ParseBytes([]byte(sampleLog))
	if err != nil {
		t.Fatal(err)
	}
	rx := sampleSeries(rep, RX)
	if len(rx) != 2 || rx[0] != 0.099 || rx[1] != 0.1 {
		t.Errorf("RX series = %v", rx)
	}
	tx := sampleSeries(rep, TX)
	if len(tx) != 2 {
		t.Errorf("TX series = %v", tx)
	}
}

// sampleSeries is the per-second Mpps series the log holds for one
// direction, in log order.
func sampleSeries(rep *Report, dir Direction) []float64 {
	var out []float64
	for _, s := range rep.Samples {
		if s.Direction == dir {
			out = append(out, s.Mpps)
		}
	}
	return out
}

func TestParseNoLatencyLine(t *testing.T) {
	log := `[Device: id=0] TX: 0.0400 Mpps (StdDev 0.0100), total 40000 packets, 2560000 bytes
[Device: id=1] RX: 0.0390 Mpps (StdDev 0.0120), total 39000 packets, 2496000 bytes
`
	rep, err := ParseBytes([]byte(log))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Latency != nil {
		t.Error("latency parsed from log without latency line")
	}
}

func TestParseGarbageFails(t *testing.T) {
	if _, err := ParseBytes([]byte("this is not\na moongen log\n")); err != ErrNoTotals {
		t.Errorf("err = %v, want ErrNoTotals", err)
	}
}

func TestParseEmptyFails(t *testing.T) {
	if _, err := ParseBytes(nil); err == nil {
		t.Error("accepted empty log")
	}
}

func TestTotalFallbackDevice(t *testing.T) {
	// RX reported on an unconventional device id still resolves.
	log := `[Device: id=3] RX: 0.5000 Mpps (StdDev 0.0000), total 500000 packets, 32000000 bytes
`
	rep, err := ParseBytes([]byte(log))
	if err != nil {
		t.Fatal(err)
	}
	rx, ok := rep.Total(RX)
	if !ok || rx.Device != 3 || rx.Mpps != 0.5 {
		t.Errorf("fallback total = %+v ok=%v", rx, ok)
	}
	if _, ok := rep.Total(TX); ok {
		t.Error("found TX total in RX-only log")
	}
}

// Round trip: what loadgen writes, moonparse must read back consistently.
func TestRoundTripWithLoadgen(t *testing.T) {
	e := sim.NewEngine()
	g := loadgen.New(e, "lg", true)
	netem.Wire(e, g.TxPort(), g.RxPort(), netem.LinkConfig{})
	res, err := g.Run(loadgen.RunConfig{
		Template: packet.UDPTemplate{
			SrcIP: packet.IPv4Addr{10, 0, 0, 1}, DstIP: packet.IPv4Addr{10, 0, 0, 2},
			FrameSize: 64,
		},
		RatePPS:  123_000,
		Duration: 2 * sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	rep, err := ParseBytes(buf.Bytes())
	if err != nil {
		t.Fatalf("parse loadgen report: %v\n%s", err, buf.String())
	}
	tx, _ := rep.Total(TX)
	if tx.Packets != res.TxPackets {
		t.Errorf("parsed TX packets %d, want %d", tx.Packets, res.TxPackets)
	}
	rx, _ := rep.Total(RX)
	if rx.Packets != res.RxPackets {
		t.Errorf("parsed RX packets %d, want %d", rx.Packets, res.RxPackets)
	}
	if rep.Latency == nil {
		t.Error("latency line missing from loadgen report on a timestamped path")
	}
	if len(sampleSeries(rep, TX)) < 2 {
		t.Error("per-second samples missing")
	}
}

func TestParseLongLinesDoNotBreakScanner(t *testing.T) {
	long := strings.Repeat("x", 200_000)
	log := long + "\n[Device: id=0] TX: 1.0000 Mpps (StdDev 0.0000), total 1 packets, 64 bytes\n"
	if _, err := ParseBytes([]byte(log)); err != nil {
		t.Errorf("long line broke parser: %v", err)
	}
}

func BenchmarkParse(b *testing.B) {
	log := []byte(sampleLog)
	b.ReportAllocs()
	b.SetBytes(int64(len(log)))
	for i := 0; i < b.N; i++ {
		if _, err := ParseBytes(log); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	sampleRe = regexp.MustCompile(`^\[Device: id=(\d+)\] (TX|RX): ([\d.]+) Mpps, ([\d.]+) Mbit/s \(([\d.]+) Mbit/s with framing\)`)
	totalRe  = regexp.MustCompile(`^\[Device: id=(\d+)\] (TX|RX): ([\d.]+) Mpps \(StdDev ([\d.]+)\), total (\d+) packets, (\d+) bytes`)
	latRe    = regexp.MustCompile(`^\[Latency\] avg: ([\d.]+) ns, min: ([\d.]+) ns, max: ([\d.]+) ns, samples: (\d+)`)
)

// parseRegexp is the original implementation of the parser — a line scanner
// feeding three regexps — kept as the executable specification of the line
// grammar, the 1 MiB line limit and the line-ending rules.
func parseRegexp(r io.Reader) (*Report, error) {
	rep := &Report{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		switch {
		case totalRe.MatchString(line):
			m := totalRe.FindStringSubmatch(line)
			t := Total{
				Device:    atoi([]byte(m[1])),
				Direction: Direction(m[2]),
				Mpps:      atof([]byte(m[3])),
				StdDev:    atof([]byte(m[4])),
				Packets:   atoi64([]byte(m[5])),
				Bytes:     atoi64([]byte(m[6])),
			}
			rep.Totals = append(rep.Totals, t)
		case sampleRe.MatchString(line):
			m := sampleRe.FindStringSubmatch(line)
			s := Sample{
				Device:     atoi([]byte(m[1])),
				Direction:  Direction(m[2]),
				Mpps:       atof([]byte(m[3])),
				Mbps:       atof([]byte(m[4])),
				MbpsFramed: atof([]byte(m[5])),
			}
			rep.Samples = append(rep.Samples, s)
		case latRe.MatchString(line):
			m := latRe.FindStringSubmatch(line)
			rep.Latency = &Latency{
				AvgNs:   atof([]byte(m[1])),
				MinNs:   atof([]byte(m[2])),
				MaxNs:   atof([]byte(m[3])),
				Samples: atoi64([]byte(m[4])),
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("moonparse: line %d: %w", lineNo, err)
	}
	if len(rep.Totals) == 0 {
		return nil, ErrNoTotals
	}
	return rep, nil
}

// matchesRegexp holds ParseBytes equal to the regexp reference on one
// input — report, error text and error identity — and checks the in-place
// contract: the report survives the caller scribbling over the log.
func matchesRegexp(input string) error {
	want, werr := parseRegexp(strings.NewReader(input))
	data := []byte(input)
	got, gerr := ParseBytes(data)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) || errors.Is(gerr, bufio.ErrTooLong) != errors.Is(werr, bufio.ErrTooLong) {
		return fmt.Errorf("ParseBytes err %v, regexp err %v", gerr, werr)
	}
	for i := range data {
		data[i] = 'x'
	}
	if !reportsEqual(got, want) {
		return fmt.Errorf("ParseBytes: %+v\nregexp: %+v", got, want)
	}
	return nil
}

// reportsEqual compares two parses structurally.
func reportsEqual(a, b *Report) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if len(a.Samples) != len(b.Samples) || len(a.Totals) != len(b.Totals) {
		return false
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			return false
		}
	}
	for i := range a.Totals {
		if a.Totals[i] != b.Totals[i] {
			return false
		}
	}
	if (a.Latency == nil) != (b.Latency == nil) {
		return false
	}
	return a.Latency == nil || *a.Latency == *b.Latency
}

// TestScannerMatchesRegexp holds the hand-rolled scanner equal to the
// retained regexp reference on exemplar, malformed, and borderline lines.
func TestScannerMatchesRegexp(t *testing.T) {
	lines := []string{
		sampleLog,
		"[Device: id=0] TX: 0.1000 Mpps, 51.20 Mbit/s (67.20 Mbit/s with framing)",
		"[Device: id=12] RX: 14.88 Mpps (StdDev 0.01), total 148800000 packets, 9523200000 bytes",
		"[Latency] avg: 12345.6 ns, min: 9000 ns, max: 40000 ns, samples: 1000",
		// Trailing garbage is tolerated, exactly like the anchored regexps.
		"[Device: id=0] TX: 1 Mpps (StdDev 0), total 1 packets, 64 bytes TRAILING",
		"[Latency] avg: 1 ns, min: 1 ns, max: 1 ns, samples: 1 extra",
		// Degenerate numeric tokens [\d.]+ accepts.
		"[Device: id=0] TX: . Mpps, 1.2.3 Mbit/s (... Mbit/s with framing)",
		"[Device: id=0] TX: .5 Mpps (StdDev 1.), total 10 packets, 640 bytes",
		// Near-misses that must parse as nothing.
		"[Device: id=] TX: 1 Mpps (StdDev 0), total 1 packets, 64 bytes",
		"[Device: id=0] FX: 1 Mpps (StdDev 0), total 1 packets, 64 bytes",
		"[Device: id=0] TX: 1 Mpps (StdDev ), total 1 packets, 64 bytes",
		"[Device: id=0] TX: 1 Mpps, 1 Mbit/s (1 Mbit/s without framing)",
		"[Device: id=0] TX: 1 Mpps",
		"[Latency] avg: ns, min: 1 ns, max: 1 ns, samples: 1",
		"[Latency] avg: 1 ns, min: 1 ns, max: 1 ns, samples: x",
		" [Device: id=0] TX: 1 Mpps (StdDev 0), total 1 packets, 64 bytes", // leading space is trimmed
		"Device: id=0] TX: 1 Mpps (StdDev 0), total 1 packets, 64 bytes",
		"",
		// Line endings: CRLF ends a line, a lone CR does not.
		"[Device: id=0] TX: 1 Mpps (StdDev 0), total 1 packets, 64 bytes\r",
		"noise\r[Device: id=0] TX: 1 Mpps (StdDev 0), total 1 packets, 64 bytes",
		"[Device: id=0] TX: 1 Mpps (StdDev 0), total 1 packets, 64 bytes\rnoise",
		"\r",
	}
	for _, line := range lines {
		input := line + "\n[Device: id=9] TX: 1 Mpps (StdDev 0), total 1 packets, 64 bytes\n"
		if err := matchesRegexp(input); err != nil {
			t.Errorf("%q: %v", line, err)
		}
	}
}

// TestLineLimitMatchesRegexp walks the 1 MiB line limit: the longest line
// that parses, the first that does not, with and without a terminator, and
// the line number the error carries.
func TestLineLimitMatchesRegexp(t *testing.T) {
	const total = "[Device: id=9] TX: 1 Mpps (StdDev 0), total 1 packets, 64 bytes\n"
	for _, n := range []int{maxLineLen - 1, maxLineLen, maxLineLen + 1, maxLineLen + 2, 3 * maxLineLen} {
		long := strings.Repeat("x", n)
		for name, input := range map[string]string{
			"first line":    long + "\n" + total,
			"third line":    total + "\n" + long + "\n" + total,
			"crlf":          total + long[1:] + "\r\n",
			"no terminator": total + long,
		} {
			if err := matchesRegexp(input); err != nil {
				t.Errorf("%d bytes, %s: %.200v", n, name, err)
			}
		}
	}
	_, err := ParseBytes([]byte(total + strings.Repeat("x", maxLineLen+1)))
	if !errors.Is(err, bufio.ErrTooLong) || !strings.Contains(err.Error(), "line 1:") {
		t.Errorf("over-long second line: err = %v", err)
	}
}

// Property: scanner and regexp reference agree on arbitrary input.
func TestScannerMatchesRegexpProperty(t *testing.T) {
	prop := func(input string) bool { return matchesRegexp(input) == nil }
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// FuzzScannerMatchesRegexp drives the differential check from the fuzzer's
// corpus; `go test` runs the seed corpus, `go test -fuzz` explores. pad
// lengthens the input's last line by that many bytes (mod a little over the
// line limit), so the limit is one integer away instead of a megabyte of
// mutations.
func FuzzScannerMatchesRegexp(f *testing.F) {
	f.Add(sampleLog, uint32(0))
	f.Add("[Device: id=0] TX: . Mpps (StdDev .), total 0 packets, 0 bytes\n", uint32(0))
	f.Add("[Latency] avg: 0.1 ns, min: 0 ns, max: 9 ns, samples: 2\n", uint32(0))
	f.Add(sampleLog, uint32(maxLineLen+1))
	f.Add(sampleLog+"tail", uint32(maxLineLen-4))
	f.Add("noise\r"+sampleLog+"\r", uint32(0))
	f.Add(strings.ReplaceAll(sampleLog, "\n", "\r\n"), uint32(7))
	f.Fuzz(func(t *testing.T, input string, pad uint32) {
		input += strings.Repeat("x", int(pad%(maxLineLen+64)))
		if err := matchesRegexp(input); err != nil {
			t.Fatalf("%.300v", err)
		}
	})
}

// Property: the parser terminates without panicking on arbitrary input and
// either returns a report with totals or ErrNoTotals.
func TestParseNeverPanicsProperty(t *testing.T) {
	prop := func(input string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		rep, err := ParseBytes([]byte(input))
		if err != nil {
			return err == ErrNoTotals || rep == nil
		}
		return len(rep.Totals) > 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
