package telemetry_test

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"pos/internal/telemetry"
	"pos/internal/timeline"
)

// FuzzParseSpans feeds the span-archive parser arbitrary bytes — posctl
// analyze reads spans.json out of releases someone else wrote — and holds it
// to its oracle: whatever ParseSpans accepts, a json.Decoder reading the same
// bytes as a stream of SpanRecords accepts too, with equal records. What it
// accepts then goes through the analysis and the Chrome-trace converter.
// None of them may panic, the converter's output must be JSON, and the phase
// totals of an accepted archive must sum to its wall clock, as they do by
// construction for the archives this system writes. The seeds live in
// testdata/fuzz.
func FuzzParseSpans(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := telemetry.ParseSpans(data)
		if err != nil {
			return
		}
		want, err := parseSpansOracle(data)
		if err != nil {
			t.Fatalf("ParseSpans accepted %q, json.Decoder rejects it: %v", data, err)
		}
		if len(recs) != len(want) || (len(recs) > 0 && !reflect.DeepEqual(recs, want)) {
			t.Fatalf("%q: ParseSpans read %+v, json.Decoder %+v", data, recs, want)
		}
		sum := timeline.Summarize(recs)
		var total float64
		for _, p := range sum.Phases {
			total += p.MS
		}
		if math.Abs(total-sum.WallMS) > 1e-6*math.Max(1, sum.WallMS) {
			t.Fatalf("phases sum to %v ms, wall clock is %v ms", total, sum.WallMS)
		}
		chrome, err := telemetry.ChromeTrace(recs)
		if err != nil {
			t.Fatalf("ChromeTrace on accepted spans: %v", err)
		}
		if !json.Valid(chrome) {
			t.Fatalf("ChromeTrace wrote invalid JSON: %q", chrome)
		}
	})
}

// parseSpansOracle reads a span archive as ParseSpans did through
// encoding/json: a stream of SpanRecords, each clamped to zero length when
// it ends before it starts.
func parseSpansOracle(data []byte) ([]telemetry.SpanRecord, error) {
	var out []telemetry.SpanRecord
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var rec telemetry.SpanRecord
		if err := dec.Decode(&rec); err != nil {
			return nil, err
		}
		if rec.End.Before(rec.Start) {
			rec.End = rec.Start
		}
		out = append(out, rec)
	}
	return out, nil
}

// The archives among the seeds that this system wrote are read, not
// refused: a seed ParseSpans rejects would exercise only its error path.
func TestParseSpansReadsArchiveSeeds(t *testing.T) {
	for name, spans := range map[string]int{"real-2-replica": 23, "real-60-run-bare-metal": 187, "legacy-int-linkage": 4} {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzParseSpans", name))
		if err != nil {
			t.Fatal(err)
		}
		quoted, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(quoted, ")\n"))
		if !ok || err != nil {
			t.Fatalf("%s: not a []byte seed: %v", name, err)
		}
		recs, err := telemetry.ParseSpans([]byte(data))
		if err != nil || len(recs) != spans {
			t.Errorf("%s: ParseSpans read %d spans, want %d (%v)", name, len(recs), spans, err)
		}
	}
}

// What ParseSpans refuses and json.Decoder reads is refused on purpose, as
// its doc comment lists.
func TestParseSpansNarrowerThanDecoder(t *testing.T) {
	const span = `{"id":1,"name":"campaign:x","start":"2021-10-12T11:20:32Z","end":"2021-10-12T11:20:42Z"}`
	for _, in := range []string{
		`{"id":1,"ID":2}`,            // a key spelt another way
		`{"id":1,"name":"a","id":2}`, // a key given twice
		`{"id":1,"attrs":null}`,      // a null member
		`{"id":1,"proc":null}`,
		"{\"id\":1,\n\"name\":\"a\"}", // an object split over lines
		span + " " + span,             // two objects on one line
		span + "\n]",                  // bytes after the last object
		span + "\n}x",
		"null\n" + span, // a line that holds no object
	} {
		if _, err := parseSpansOracle([]byte(in)); err != nil {
			t.Fatalf("json.Decoder rejects %q: %v", in, err)
		}
		if _, err := telemetry.ParseSpans([]byte(in)); err == nil {
			t.Errorf("ParseSpans accepted %q", in)
		}
	}
}

// FuzzParseRenderedSpans: ParseSpans reads every archive RenderJSON writes,
// and reads it as json.Decoder does. The trace has a root and n children
// under it, every third one left open, each with two attrs.
func FuzzParseRenderedSpans(f *testing.F) {
	f.Add("run 0", "combo", "pkt_rate=10000,pkt_sz=64", "runner", int64(0), int64(137e3), uint8(5), false)
	f.Add("exec:\xff<b>", "k\u2028", "\"quoted\"\n", "", int64(-(9*3600 + 30*60)), int64(-1), uint8(9), true)
	f.Add("", "", "", "controller", int64(5*3600), int64(1), uint8(0), true)
	f.Fuzz(func(t *testing.T, name, key, value, proc string, zone, step int64, n uint8, linked bool) {
		traceparent := ""
		if linked {
			traceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
		}
		tr := telemetry.NewLinkedTrace(name, traceparent)
		tr.SetProcess(proc)
		// An hour's steps at most: a 256-span trace stays well inside a
		// time.Duration, which ParseSpans requires of an archive.
		now := time.Date(2021, 10, 12, 11, 20, 32, 230471000, time.FixedZone("", int(zone%(48*3600))))
		tr.SetClock(func() time.Time {
			now = now.Add(time.Duration(step % int64(time.Hour)))
			return now
		})
		for i := 0; i < int(n); i++ {
			child := tr.Root().StartChild(name, key, value, "i", strconv.Itoa(i))
			if i%3 != 2 {
				child.End()
			}
		}
		data, err := tr.RenderJSON()
		if err != nil {
			return // a zone RFC 3339 cannot carry
		}
		recs, err := telemetry.ParseSpans(data)
		if err != nil {
			t.Fatalf("ParseSpans rejects what RenderJSON wrote: %v\n%s", err, data)
		}
		want, err := parseSpansOracle(data)
		if err != nil {
			t.Fatalf("json.Decoder rejects what RenderJSON wrote: %v\n%s", err, data)
		}
		if !reflect.DeepEqual(recs, want) {
			t.Fatalf("ParseSpans read %+v, json.Decoder %+v", recs, want)
		}
	})
}

// FuzzRenderSpans holds RenderJSON to its oracle: every line is byte for
// byte what json.Marshal writes for the span's Records entry, and one fails
// where the other does. The script drives the trace: each byte opens a
// child (with attrs, some given twice), sets or overwrites an attr, or ends
// a span, on the span it picks.
func FuzzRenderSpans(f *testing.F) {
	f.Add("campaign:appendix", "combo", "size=64", "phase", "measurement", "", []byte{0, 5, 1, 10, 2, 3, 7}, int64(0), int64(10e6), false, true)
	f.Add("<b>&amp;</b>", "k\xff", "  ", "<", ">&", "controller", []byte{0, 0, 4, 1, 3, 2}, int64(2*3600), int64(1), true, true)
	f.Add("\xff\xfe name", "dup", "first", "dup", "second", "runner", []byte{0, 4, 9, 1, 6}, int64(-(9*3600 + 30*60)), int64(3e9), false, false)
	f.Add("open", "a", "1", "b", "2", "", []byte{0, 0, 0, 5, 10}, int64(0), int64(0), false, false)
	f.Add("far", "a", "1", "b", "2", "", []byte{0, 2}, int64(24*3600), int64(1e18), true, true)
	f.Fuzz(func(t *testing.T, name, k1, v1, k2, v2, proc string, script []byte, zone, step int64, linked, finish bool) {
		traceparent := ""
		if linked {
			traceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
		}
		tr := telemetry.NewLinkedTrace(name, traceparent)
		tr.SetProcess(proc)
		loc := time.FixedZone("", int(zone%(48*3600)))
		now := time.Date(2021, 10, 12, 11, 20, 32, 230471000, loc)
		tr.SetClock(func() time.Time {
			now = now.Add(time.Duration(step))
			return now
		})
		spans := []*telemetry.Span{tr.Root()}
		for _, b := range script {
			s := spans[int(b/5)%len(spans)]
			switch b % 5 {
			case 0:
				spans = append(spans, s.StartChild(name+" child", k1, v1, k2, v2))
			case 1:
				s.SetAttr(k1, v1+" again")
			case 2:
				s.End()
			case 3:
				s.SetAttr(k2, v2)
			case 4:
				spans = append(spans, s.StartChild(name, k1, v1, k1, v2, "odd"))
			}
		}
		if finish {
			tr.Finish()
		}
		var want []byte
		var wantErr error
		for _, rec := range tr.Records() {
			line, err := json.Marshal(rec)
			if err != nil {
				wantErr = err
				break
			}
			want = append(append(want, line...), '\n')
		}
		got, err := tr.RenderJSON()
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("RenderJSON err = %v, json.Marshal err = %v", err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("RenderJSON differs from json.Marshal of Records:\n got %s\nwant %s", got, want)
		}
	})
}
