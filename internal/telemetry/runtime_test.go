package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

// resources.json is written field by field; the bytes are MarshalIndent's.
func TestRuntimeDeltaAppendIndentJSONMatchesMarshalIndent(t *testing.T) {
	at := time.Date(2021, 10, 12, 11, 20, 32, 230471000, time.UTC)
	typical := ReadRuntimeStats().DeltaTo(ReadRuntimeStats())
	huge := RuntimeDelta{
		StartedAt: at, FinishedAt: at.In(time.FixedZone("", -5*3600)),
		WallSeconds: math.MaxFloat64, HeapBytesStart: math.MaxUint64, HeapBytesEnd: math.MaxUint64,
		AllocBytes: math.MaxUint64, GCCycles: math.MaxUint64,
		GCPauseSeconds: 1e21, GCPauseMaxSeconds: 5e-324,
		GoroutinesStart: math.MaxUint64, GoroutinesEnd: math.MaxUint64,
		SchedLatencyP50: 9.99e-7, SchedLatencyP99: 1.5e-05,
	}
	for name, d := range map[string]RuntimeDelta{
		"zero":    {},
		"typical": typical,
		"small":   {StartedAt: at, FinishedAt: at.Add(550 * time.Microsecond), WallSeconds: 0.00055, AllocBytes: 24576, GCPauseSeconds: 3.2e-5, SchedLatencyP99: 0.000123},
		"huge":    huge,
	} {
		got, err := d.AppendIndentJSON([]byte("prefix"))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		want, err := json.MarshalIndent(d, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[len("prefix"):], want) {
			t.Errorf("%s: resources.json differs:\n got %s\nwant %s", name, got[len("prefix"):], want)
		}
	}
	// What MarshalIndent refuses is refused.
	for _, d := range []RuntimeDelta{
		{WallSeconds: math.NaN()},
		{SchedLatencyP99: math.Inf(1)},
		{FinishedAt: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)},
	} {
		if _, err := json.MarshalIndent(d, "", "  "); err == nil {
			t.Fatalf("MarshalIndent accepted %+v", d)
		}
		if _, err := d.AppendIndentJSON(nil); err == nil {
			t.Errorf("AppendIndentJSON accepted %+v", d)
		}
	}
}

// histDelta answers from the two readings directly; the reference
// materializes the per-bucket growth first, as sub used to.
func TestHistDeltaMatchesMaterializedDifference(t *testing.T) {
	inf := math.Inf(1)
	buckets := []float64{-inf, 0, 1e-6, 1e-5, 1e-4, 1e-3, inf}
	start := HistogramState{Buckets: buckets, Counts: []uint64{0, 5, 10, 2, 0, 1}}
	end := HistogramState{Buckets: buckets, Counts: []uint64{1, 5, 25, 9, 3, 1}}
	shrunk := HistogramState{Buckets: buckets, Counts: []uint64{0, 4, 30, 9, 3, 0}} // a count below its start clamps to zero
	other := HistogramState{Buckets: buckets[:4], Counts: []uint64{7, 7, 7}}        // shape change: the later counts as they are
	for _, tc := range []struct {
		name       string
		start, end HistogramState
		want       []uint64
	}{
		{"growth", start, end, []uint64{1, 0, 15, 7, 3, 0}},
		{"clamped", start, shrunk, []uint64{0, 0, 20, 7, 3, 0}},
		{"no start", HistogramState{}, end, end.Counts},
		{"shape change", other, end, end.Counts},
		{"empty", HistogramState{}, HistogramState{}, nil},
	} {
		d := tc.end.sub(tc.start)
		ref := HistogramState{Buckets: tc.end.Buckets, Counts: tc.want}.sub(HistogramState{})
		for i := range tc.want {
			if d.count(i) != tc.want[i] {
				t.Errorf("%s: count(%d) = %d, want %d", tc.name, i, d.count(i), tc.want[i])
			}
		}
		if d.total() != ref.total() || d.approxSum() != ref.approxSum() || d.maxValue() != ref.maxValue() {
			t.Errorf("%s: total/sum/max = %d/%g/%g, want %d/%g/%g", tc.name,
				d.total(), d.approxSum(), d.maxValue(), ref.total(), ref.approxSum(), ref.maxValue())
		}
		for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2} {
			if d.quantile(q) != ref.quantile(q) {
				t.Errorf("%s: quantile(%g) = %g, want %g", tc.name, q, d.quantile(q), ref.quantile(q))
			}
		}
	}
	// Subtracting reads both readings and writes neither.
	if start.Counts[2] != 10 || end.Counts[2] != 25 {
		t.Error("sub modified a reading")
	}
}

// Readings share the pooled sample slices: concurrent readers must each get
// counts of their own, untouched by the next Read into the same pool entry.
func TestReadRuntimeStatsReadingsAreIndependent(t *testing.T) {
	first := ReadRuntimeStats()
	if len(first.GCPauses.Counts) == 0 || len(first.GCPauses.Buckets) != len(first.GCPauses.Counts)+1 ||
		len(first.SchedLat.Counts) == 0 || len(first.SchedLat.Buckets) != len(first.SchedLat.Counts)+1 {
		t.Fatalf("histogram shapes: pauses %d/%d, sched %d/%d", len(first.GCPauses.Buckets),
			len(first.GCPauses.Counts), len(first.SchedLat.Buckets), len(first.SchedLat.Counts))
	}
	snapshot := append([]uint64(nil), first.SchedLat.Counts...)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				st := ReadRuntimeStats()
				if st.SchedLat.sub(first.SchedLat).total() > 1<<40 {
					t.Error("implausible scheduling-latency growth")
				}
			}
		}()
	}
	wg.Wait()
	for i, c := range first.SchedLat.Counts {
		if c != snapshot[i] {
			t.Fatalf("an earlier reading's counts changed under later reads (bucket %d: %d → %d)", i, snapshot[i], c)
		}
	}
}
