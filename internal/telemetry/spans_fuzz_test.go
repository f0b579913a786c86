package telemetry_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"pos/internal/telemetry"
	"pos/internal/timeline"
)

// FuzzParseSpans feeds the span-archive parser arbitrary bytes — posctl
// analyze reads spans.json out of releases someone else wrote — and runs
// what it accepts through the analysis and the Chrome-trace converter. None
// of the three may panic, the converter's output must be JSON, and the phase
// totals of an accepted archive must sum to its wall clock, as they do by
// construction for the archives this system writes. The seeds live in
// testdata/fuzz.
func FuzzParseSpans(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := telemetry.ParseSpans(data)
		if err != nil {
			return
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
