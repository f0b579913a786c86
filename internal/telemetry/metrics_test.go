package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "Jobs.")
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // ignored: counters are monotonic
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter = %v, want 3.5", got)
	}
	g := r.Gauge("depth", "Queue depth.")
	g.Set(7)
	g.Dec()
	g.Add(0.5)
	if got := g.Value(); got != 6.5 {
		t.Errorf("gauge = %v, want 6.5", got)
	}
	// Re-registering the same name returns the same series.
	if r.Counter("jobs_total", "Jobs.").Value() != 3.5 {
		t.Error("re-registered counter lost its value")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-55.65) > 1e-9 {
		t.Errorf("sum = %v, want 55.65", h.Sum())
	}
	snap := r.Snapshot()
	buckets := snap.Metrics[0].Values[0].Buckets
	wantCum := []uint64{2, 3, 4, 5} // le=0.1, 1, 10, +Inf (0.1 is inclusive)
	for i, b := range buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket[%d] (le=%v) = %d, want %d", i, b.LE, b.Count, wantCum[i])
		}
	}
}

func TestVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("req_total", "Requests.", "endpoint", "code")
	v.With("exec", "200").Add(3)
	v.With("exec", "500").Inc()
	v.With("nodes", "200").Inc()
	snap := r.Snapshot()
	if len(snap.Metrics) != 1 || len(snap.Metrics[0].Values) != 3 {
		t.Fatalf("snapshot = %+v", snap)
	}
	found := false
	for _, val := range snap.Metrics[0].Values {
		if val.Labels["endpoint"] == "exec" && val.Labels["code"] == "200" {
			found = true
			if val.Value != 3 {
				t.Errorf("exec/200 = %v, want 3", val.Value)
			}
		}
	}
	if !found {
		t.Error("exec/200 series missing from snapshot")
	}
}

func TestDisabledRegistryRecordsNothing(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	h := r.Histogram("h", "", []float64{1})
	g := r.Gauge("g", "")
	r.SetEnabled(false)
	c.Inc()
	h.Observe(0.5)
	g.Set(9)
	if c.Value() != 0 || h.Count() != 0 || g.Value() != 0 {
		t.Errorf("disabled registry recorded: c=%v h=%d g=%v", c.Value(), h.Count(), g.Value())
	}
	r.SetEnabled(true)
	c.Inc()
	if c.Value() != 1 {
		t.Errorf("re-enabled counter = %v, want 1", c.Value())
	}
}

// Sample lines: name{labels} value — what a Prometheus scraper must accept.
var (
	sampleRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?[0-9.e+-]+|[+]Inf|NaN)$`)
	helpRe   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$`)
	typeRe   = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$`)
)

func TestPrometheusExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("pos_runs_total", "Total runs.").Add(42)
	r.Gauge("pos_sample_depth", "Depth.").Set(3)
	rv := r.CounterVec("pos_req_total", "Requests.", "endpoint", "code")
	rv.With("exec", "200").Add(7)
	rv.With(`we"ird`, "5\n00").Inc() // label values needing escaping
	h := r.HistogramVec("pos_phase_seconds", "Phases.", []float64{0.1, 1}, "phase")
	h.With("boot").Observe(0.05)
	h.With("boot").Observe(0.5)
	h.With("boot").Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")

	types := map[string]string{}
	samples := map[string]float64{}
	var lastName string
	for i, line := range lines {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if !helpRe.MatchString(line) {
				t.Errorf("line %d: bad HELP line %q", i, line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			if !typeRe.MatchString(line) {
				t.Fatalf("line %d: bad TYPE line %q", i, line)
			}
			parts := strings.Fields(line)
			name := parts[2]
			if name <= lastName {
				t.Errorf("line %d: families not sorted: %q after %q", i, name, lastName)
			}
			lastName = name
			types[name] = parts[3]
		default:
			if !sampleRe.MatchString(line) {
				t.Fatalf("line %d: bad sample line %q", i, line)
			}
			key := line[:strings.LastIndex(line, " ")]
			v, err := strconv.ParseFloat(line[strings.LastIndex(line, " ")+1:], 64)
			if err != nil {
				t.Fatalf("line %d: bad value in %q: %v", i, line, err)
			}
			samples[key] = v
		}
	}
	if types["pos_runs_total"] != "counter" || types["pos_phase_seconds"] != "histogram" {
		t.Errorf("types = %v", types)
	}
	if samples["pos_runs_total"] != 42 {
		t.Errorf("pos_runs_total = %v", samples["pos_runs_total"])
	}
	if samples[`pos_req_total{endpoint="exec",code="200"}`] != 7 {
		t.Errorf("labelled sample missing: %v", samples)
	}
	if samples[`pos_req_total{endpoint="we\"ird",code="5\n00"}`] != 1 {
		t.Errorf("escaped labels missing: %v", samples)
	}
	// Histogram invariants: cumulative buckets, +Inf == count.
	b1 := samples[`pos_phase_seconds_bucket{phase="boot",le="0.1"}`]
	b2 := samples[`pos_phase_seconds_bucket{phase="boot",le="1"}`]
	binf := samples[`pos_phase_seconds_bucket{phase="boot",le="+Inf"}`]
	cnt := samples[`pos_phase_seconds_count{phase="boot"}`]
	if b1 != 1 || b2 != 2 || binf != 3 || cnt != 3 {
		t.Errorf("histogram buckets: le0.1=%v le1=%v inf=%v count=%v", b1, b2, binf, cnt)
	}
	if b1 > b2 || b2 > binf {
		t.Error("buckets not cumulative")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "A.").Add(5)
	r.Histogram("b_seconds", "B.", []float64{1, 2}).Observe(1.5)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Metrics) != 2 || snap.Metrics[0].Values[0].Value != 5 {
		t.Fatalf("round-trip = %+v", snap)
	}
	h := snap.Metrics[1].Values[0]
	if h.Count != 1 || !math.IsInf(h.Buckets[2].LE, 1) || h.Buckets[2].Count != 1 {
		t.Errorf("histogram round-trip = %+v", h)
	}
}

// TestRegistryConcurrent hammers every metric kind plus exposition from
// concurrent goroutines; run under -race it proves the hot paths are safe
// for many replicas recording at once.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "", DurationBuckets())
	cv := r.CounterVec("cv_total", "", "worker")

	const workers, iters = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lc := cv.With(fmt.Sprintf("w%d", w))
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				g.Dec()
				h.Observe(float64(i) / 1000)
				lc.Inc()
				if i%100 == 0 {
					var b strings.Builder
					if err := r.WritePrometheus(&b); err != nil {
						t.Error(err)
					}
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*iters {
		t.Errorf("counter = %v, want %d", c.Value(), workers*iters)
	}
	if h.Count() != workers*iters {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*iters)
	}
	if g.Value() != 0 {
		t.Errorf("gauge = %v, want 0", g.Value())
	}
	for w := 0; w < workers; w++ {
		if v := cv.With(fmt.Sprintf("w%d", w)).Value(); v != iters {
			t.Errorf("cv[w%d] = %v, want %d", w, v, iters)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_seconds", "Q.", []float64{1, 2, 4})
	// 10 samples in [0,1), 80 in [1,2), 10 in [2,4): the median falls
	// mid-way through the second bucket, p99 near the top of the third.
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
	}
	for i := 0; i < 80; i++ {
		h.Observe(1.5)
	}
	for i := 0; i < 10; i++ {
		h.Observe(3)
	}
	histValue := func(name string) ValueSnapshot {
		for _, m := range r.Snapshot().Metrics {
			if m.Name == name {
				return m.Values[0]
			}
		}
		t.Fatalf("metric %s missing from snapshot", name)
		return ValueSnapshot{}
	}
	v := histValue("q_seconds")
	if v.Quantiles == nil {
		t.Fatal("histogram snapshot carries no quantiles")
	}
	p50, p90, p99 := v.Quantiles["p50"], v.Quantiles["p90"], v.Quantiles["p99"]
	if p50 < 1 || p50 > 2 {
		t.Errorf("p50 = %g, want within (1,2)", p50)
	}
	if p90 < 1.9 || p90 > 2.1 {
		t.Errorf("p90 = %g, want ~2 (bucket edge)", p90)
	}
	if p99 < 2 || p99 > 4 {
		t.Errorf("p99 = %g, want within (2,4)", p99)
	}
	if p50 > p90 || p90 > p99 {
		t.Errorf("quantiles not monotonic: p50 %g p90 %g p99 %g", p50, p90, p99)
	}

	// Observations above every finite bound clamp to the highest bound.
	h2 := r.Histogram("q2_seconds", "Q2.", []float64{1})
	h2.Observe(100)
	if got := histValue("q2_seconds").Quantiles["p99"]; got != 1 {
		t.Errorf("+Inf-bucket quantile = %g, want clamp to 1", got)
	}

	// An empty histogram exposes no quantiles at all.
	r.Histogram("q3_seconds", "Q3.", []float64{1})
	if v3 := histValue("q3_seconds"); v3.Quantiles != nil {
		t.Errorf("empty histogram quantiles = %v, want none", v3.Quantiles)
	}
}

func TestRuntimeSampler(t *testing.T) {
	r := NewRegistry()
	s := NewRuntimeSampler(r, time.Hour) // never self-ticks in this test
	s.Sample()
	garbage := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		garbage = append(garbage, make([]byte, 1<<16))
	}
	_ = garbage
	s.Sample()
	if v, ok := r.Total("pos_runtime_goroutines"); !ok || v < 1 {
		t.Fatalf("goroutines gauge = %g/%v", v, ok)
	}
	if v, ok := r.Total("pos_runtime_heap_bytes"); !ok || v <= 0 {
		t.Fatalf("heap gauge = %g/%v", v, ok)
	}
	if v, ok := r.Total("pos_runtime_samples_total"); !ok || v != 2 {
		t.Fatalf("samples counter = %g/%v, want 2", v, ok)
	}
	if v, ok := r.Total("pos_runtime_alloc_bytes_total"); !ok || v < 1<<20 {
		t.Fatalf("alloc counter = %g/%v, want at least the 4MiB of garbage", v, ok)
	}
	// Start/Stop cycle is idempotent and restartable.
	s.Start()
	s.Start()
	s.Stop()
	s.Stop()
	s.Start()
	s.Stop()
}

func TestRuntimeDelta(t *testing.T) {
	start := ReadRuntimeStats()
	garbage := make([][]byte, 0, 128)
	for i := 0; i < 128; i++ {
		garbage = append(garbage, make([]byte, 1<<16))
	}
	_ = garbage
	d := start.DeltaTo(ReadRuntimeStats())
	if d.StartedAt.IsZero() || d.FinishedAt.Before(d.StartedAt) {
		t.Fatalf("delta window = %+v", d)
	}
	if d.AllocBytes < 1<<20 {
		t.Fatalf("AllocBytes = %d, want at least the garbage allocated between samples", d.AllocBytes)
	}
	if d.GoroutinesStart == 0 || d.GoroutinesEnd == 0 {
		t.Fatalf("goroutine counts = %d/%d", d.GoroutinesStart, d.GoroutinesEnd)
	}
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var back RuntimeDelta
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.AllocBytes != d.AllocBytes || back.WallSeconds != d.WallSeconds {
		t.Fatal("RuntimeDelta did not round-trip")
	}
}
