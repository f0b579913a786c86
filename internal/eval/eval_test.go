package eval

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"pos/internal/moonparse"
	"pos/internal/results"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 || s.Min != 2 || s.Max != 9 {
		t.Errorf("summary = %+v", s)
	}
	if s.StdDev < 2.13 || s.StdDev > 2.15 {
		t.Errorf("stddev = %v", s.StdDev)
	}
	if s.Median != 4.5 {
		t.Errorf("median = %v", s.Median)
	}
	empty := Summarize(nil)
	if empty.N != 0 {
		t.Errorf("empty = %+v", empty)
	}
}

func TestQuantile(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {-0.5, 1}, {2, 5},
	}
	for _, c := range cases {
		if got := Quantile(data, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile not NaN")
	}
	// Interpolation between points.
	if got := Quantile([]float64{0, 10}, 0.25); got != 2.5 {
		t.Errorf("interpolated = %v", got)
	}
}

func TestCDFMonotone(t *testing.T) {
	cdf := CDF([]float64{3, 1, 2, 2, 5})
	if len(cdf) != 4 { // duplicate 2 collapsed
		t.Fatalf("cdf = %v", cdf)
	}
	if cdf[len(cdf)-1].Y != 1 {
		t.Errorf("final probability = %v", cdf[len(cdf)-1].Y)
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].X <= cdf[i-1].X || cdf[i].Y < cdf[i-1].Y {
			t.Errorf("not monotone at %d: %v", i, cdf)
		}
	}
	if CDF(nil) != nil {
		t.Error("empty CDF not nil")
	}
}

// Property: CDF is a valid distribution function for arbitrary data.
func TestCDFProperty(t *testing.T) {
	prop := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		cdf := CDF(clean)
		if len(clean) == 0 {
			return cdf == nil
		}
		last := 0.0
		for _, p := range cdf {
			if p.Y < last || p.Y > 1+1e-12 {
				return false
			}
			last = p.Y
		}
		return math.Abs(cdf[len(cdf)-1].Y-1) < 1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := Histogram([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 5)
	if len(h) != 5 {
		t.Fatalf("bins = %d", len(h))
	}
	var total float64
	for _, p := range h {
		total += p.Y
	}
	if total != 10 {
		t.Errorf("total count = %v", total)
	}
	// Degenerate cases.
	if h := Histogram([]float64{7, 7, 7}, 4); len(h) != 1 || h[0].X != 7 || h[0].Y != 3 {
		t.Errorf("constant data hist = %v", h)
	}
	if Histogram(nil, 5) != nil || Histogram([]float64{1}, 0) != nil {
		t.Error("degenerate histograms not nil")
	}
}

// Property: histogram conserves the sample count.
func TestHistogramConservationProperty(t *testing.T) {
	prop := func(xs []float64, binSeed uint8) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		bins := int(binSeed)%20 + 1
		var total float64
		for _, p := range Histogram(clean, bins) {
			total += p.Y
		}
		return total == float64(len(clean))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHDR(t *testing.T) {
	var xs []float64
	for i := 1; i <= 10000; i++ {
		xs = append(xs, float64(i))
	}
	pts := HDR(xs, HDRQuantiles)
	if len(pts) != len(HDRQuantiles) {
		t.Fatalf("points = %d", len(pts))
	}
	// X increases with quantile, Y non-decreasing.
	for i := 1; i < len(pts); i++ {
		if pts[i].X <= pts[i-1].X || pts[i].Y < pts[i-1].Y {
			t.Errorf("HDR not monotone at %d: %v", i, pts)
		}
	}
	// p50 ~ 5000, p99 ~ 9900.
	if pts[1].Y < 4990 || pts[1].Y > 5010 {
		t.Errorf("p50 = %v", pts[1].Y)
	}
	if pts[3].Y < 9890 || pts[3].Y > 9910 {
		t.Errorf("p99 = %v", pts[3].Y)
	}
	if HDR(nil, HDRQuantiles) != nil {
		t.Error("empty HDR not nil")
	}
}

func TestViolinStats(t *testing.T) {
	xs := []float64{1, 2, 2, 3, 3, 3, 4, 4, 5}
	v := ViolinStats(xs, 5)
	if v.Q1 != 2 || v.Q3 != 4 {
		t.Errorf("quartiles = %v/%v", v.Q1, v.Q3)
	}
	var peak float64
	for _, p := range v.Profile {
		if p.Y > peak {
			peak = p.Y
		}
	}
	if peak != 1 {
		t.Errorf("profile peak = %v, want 1", peak)
	}
	if empty := ViolinStats(nil, 5); empty.Summary.N != 0 || empty.Profile != nil {
		t.Errorf("empty violin = %+v", empty)
	}
}

func writeRun(t *testing.T, exp *results.Experiment, run int, size, rate string, rxMpps float64, failed bool) {
	t.Helper()
	if err := exp.WriteRunMeta(results.RunMeta{
		Run:      run,
		LoopVars: map[string]string{"pkt_sz": size, "pkt_rate": rate},
		Failed:   failed,
	}); err != nil {
		t.Fatal(err)
	}
	log := fmt.Sprintf(
		"[Device: id=0] TX: %.4f Mpps (StdDev 0.0000), total 1000 packets, 64000 bytes\n"+
			"[Device: id=1] RX: %.4f Mpps (StdDev 0.0000), total 990 packets, 63360 bytes\n",
		rxMpps, rxMpps)
	if err := exp.AddRunArtifact(run, "loadgen", "moongen.log", []byte(log)); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRunsAndThroughputSeries(t *testing.T) {
	store, err := results.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	exp, err := store.CreateExperiment("u", "e", time.Now())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { exp.Sync() })
	writeRun(t, exp, 0, "64", "10000", 0.01, false)
	writeRun(t, exp, 1, "64", "20000", 0.02, false)
	writeRun(t, exp, 2, "1500", "10000", 0.01, false)
	writeRun(t, exp, 3, "1500", "20000", 0.015, true) // failed: excluded

	runs, err := LoadRuns(exp, "loadgen", "moongen.log")
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 {
		t.Fatalf("runs = %d", len(runs))
	}
	if runs[3].Failed != true {
		t.Error("failed flag lost")
	}
	series, err := ThroughputSeries(runs, "pkt_sz", "pkt_rate", 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %+v", series)
	}
	// Sorted by name: "1500" < "64" lexically.
	if series[0].Name != "1500" || series[1].Name != "64" {
		t.Errorf("names = %s/%s", series[0].Name, series[1].Name)
	}
	if len(series[0].Points) != 1 { // failed run excluded
		t.Errorf("1500 points = %v", series[0].Points)
	}
	if len(series[1].Points) != 2 {
		t.Errorf("64 points = %v", series[1].Points)
	}
	if !sort.SliceIsSorted(series[1].Points, func(i, j int) bool {
		return series[1].Points[i].X < series[1].Points[j].X
	}) {
		t.Error("points not sorted by X")
	}
	if series[1].Points[0].X != 0.01 || series[1].Points[0].Y != 0.01 {
		t.Errorf("point = %+v", series[1].Points[0])
	}
}

func TestLoopFloatErrors(t *testing.T) {
	r := RunData{Run: 1, LoopVars: map[string]string{"a": "x"}}
	if _, err := r.LoopFloat("missing"); err == nil {
		t.Error("missing var accepted")
	}
	if _, err := r.LoopFloat("a"); err == nil {
		t.Error("non-numeric var accepted")
	}
}

func TestThroughputSeriesErrorOnBadXVar(t *testing.T) {
	store, _ := results.NewStore(t.TempDir())
	exp, _ := store.CreateExperiment("u", "e", time.Now())
	t.Cleanup(func() { exp.Sync() })
	writeRun(t, exp, 0, "64", "notanumber", 0.01, false)
	runs, err := LoadRuns(exp, "loadgen", "moongen.log")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ThroughputSeries(runs, "pkt_sz", "pkt_rate", 1); err == nil {
		t.Error("bad x var accepted")
	}
}

func TestAggregateSeries(t *testing.T) {
	rep := func(y1, y2 float64) []Series {
		return []Series{{Name: "64", Points: []Point{{X: 1, Y: y1}, {X: 2, Y: y2}}}}
	}
	agg, err := AggregateSeries([][]Series{rep(10, 20), rep(12, 20), rep(14, 20)})
	if err != nil {
		t.Fatal(err)
	}
	if len(agg) != 1 || len(agg[0].Points) != 2 {
		t.Fatalf("agg = %+v", agg)
	}
	p0 := agg[0].Points[0]
	if p0.Y != 12 || p0.YErr != 2 {
		t.Errorf("point 0 = %+v, want mean 12 sd 2", p0)
	}
	// Identical values: zero error.
	if p1 := agg[0].Points[1]; p1.Y != 20 || p1.YErr != 0 {
		t.Errorf("point 1 = %+v", p1)
	}
}

func TestAggregateSeriesValidation(t *testing.T) {
	a := []Series{{Name: "64", Points: []Point{{X: 1, Y: 1}}}}
	if _, err := AggregateSeries(nil); err == nil {
		t.Error("accepted empty aggregation")
	}
	b := []Series{{Name: "1500", Points: []Point{{X: 1, Y: 1}}}}
	if _, err := AggregateSeries([][]Series{a, b}); err == nil {
		t.Error("accepted diverging names")
	}
	c := []Series{{Name: "64", Points: []Point{{X: 9, Y: 1}}}}
	if _, err := AggregateSeries([][]Series{a, c}); err == nil {
		t.Error("accepted diverging x grids")
	}
	d := []Series{{Name: "64", Points: []Point{{X: 1, Y: 1}, {X: 2, Y: 2}}}}
	if _, err := AggregateSeries([][]Series{a, d}); err == nil {
		t.Error("accepted diverging lengths")
	}
	e := [][]Series{a, {a[0], a[0]}}
	if _, err := AggregateSeries(e); err == nil {
		t.Error("accepted diverging series counts")
	}
}

func TestStabilityIndex(t *testing.T) {
	stable := &moonparse.Report{Samples: []moonparse.Sample{
		{Direction: moonparse.RX, Mpps: 0.02},
		{Direction: moonparse.RX, Mpps: 0.02},
		{Direction: moonparse.RX, Mpps: 0.02},
	}}
	if got := StabilityIndex(stable); got != 0 {
		t.Errorf("stable index = %v", got)
	}
	unstable := &moonparse.Report{Samples: []moonparse.Sample{
		{Direction: moonparse.RX, Mpps: 0.05},
		{Direction: moonparse.RX, Mpps: 0.07},
		{Direction: moonparse.RX, Mpps: 0.06},
	}}
	if got := StabilityIndex(unstable); got <= 0 || got > 1 {
		t.Errorf("unstable index = %v", got)
	}
	if got := StabilityIndex(&moonparse.Report{}); got != 0 {
		t.Errorf("empty index = %v", got)
	}
}

func TestParseLatencyCSV(t *testing.T) {
	good := "# comment\n100\n200.5\n\n300\n"
	xs, err := ParseLatencyCSV([]byte(good))
	if err != nil || len(xs) != 3 || xs[1] != 200.5 {
		t.Errorf("xs = %v, %v", xs, err)
	}
	for _, bad := range []string{"abc\n", "-1\n", "NaN\n"} {
		if _, err := ParseLatencyCSV([]byte(bad)); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

// parseLatencyCSVRef is the parser ParseLatencyCSV replaced — split, trim,
// strconv on every line — kept as the specification of what is accepted,
// what is rejected, and what the error says.
func parseLatencyCSVRef(data []byte) ([]float64, error) {
	var out []float64
	for lineNo, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line, 64)
		if err != nil || v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("eval: latency CSV line %d: bad value %q", lineNo+1, line)
		}
		out = append(out, v)
	}
	return out, nil
}

// FuzzParseLatencyCSV holds the in-place parser to the reference: the same
// values bit for bit (nil for an artifact without values), the same verdict,
// the same error text. The corpus under testdata/fuzz pins the grammar's
// corners: signs, exponents, hex floats, underscores, Inf/NaN, the 15-digit
// edge of the integer fast path, CRLF, and the line number of a late error.
func FuzzParseLatencyCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		input := append([]byte(nil), data...)
		got, gerr := ParseLatencyCSV(data)
		want, werr := parseLatencyCSVRef(input)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("err = %v, reference %v", gerr, werr)
		}
		if (got == nil) != (want == nil) || len(got) != len(want) {
			t.Fatalf("values = %v, reference %v", got, want)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("value %d = %v, reference %v", i, got[i], want[i])
			}
		}
		if string(data) != string(input) {
			t.Fatal("parser wrote to its input")
		}
	})
}

// latencyExp is a three-run experiment whose runs carry the given
// latency.csv contents (none where the map has no entry) and a MoonGen log.
func latencyExp(t *testing.T, artifacts map[int]string) *results.Experiment {
	t.Helper()
	ResetCache()
	e := cacheExp(t)
	for run := 0; run < 3; run++ {
		if err := e.WriteRunMeta(results.RunMeta{Run: run, LoopVars: map[string]string{"rate": fmt.Sprint(run)}}); err != nil {
			t.Fatal(err)
		}
		if data, ok := artifacts[run]; ok {
			if err := e.AddRunArtifact(run, "lg", "latency.csv", []byte(data)); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.AddRunArtifact(run, "lg", "moongen.log", []byte(moongenLog)); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// An artifact without a single value contributes no key, exactly like a run
// without the artifact — pre-sizing the sample slice must not turn "nothing"
// into "an empty series".
func TestLoadLatencySkipsArtifactsWithoutValues(t *testing.T) {
	e := latencyExp(t, map[int]string{0: "", 1: "# histogram\n\n  \n", 2: "100\n200\n"})
	lat, err := LoadLatency(e, "lg", "latency.csv")
	if err != nil {
		t.Fatal(err)
	}
	if len(lat) != 1 || len(lat["rate=2"]) != 2 {
		t.Errorf("latency = %v, want only rate=2 with two samples", lat)
	}
}

// Only "no such file" means a run has no artifact. Anything else the read
// reports — here EISDIR, which root gets too — fails the load and names the
// first affected run.
func TestLoadReportsArtifactReadErrors(t *testing.T) {
	for _, artifact := range []string{"moongen.log", "latency.csv"} {
		e := latencyExp(t, map[int]string{0: "100\n"})
		if err := e.Sync(); err != nil {
			t.Fatal(err)
		}
		for _, run := range []int{2, 1} {
			path := filepath.Join(e.Dir(), fmt.Sprintf("run_%04d", run), "lg", artifact)
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			if err := os.Mkdir(path, 0o755); err != nil {
				t.Fatal(err)
			}
		}
		var err error
		if artifact == "moongen.log" {
			_, err = LoadRuns(e, "lg", artifact)
		} else {
			_, err = LoadLatency(e, "lg", artifact)
		}
		if err == nil || !strings.Contains(err.Error(), "run 1:") {
			t.Errorf("%s as a directory in runs 1 and 2: err = %v, want one naming run 1", artifact, err)
		}
	}
}
