package telemetry_test

import (
	"encoding/json"
	"math"
	"testing"

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
