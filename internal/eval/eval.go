// Package eval implements the evaluation phase of the pos workflow: it walks
// an experiment's result tree, pairs every measurement run's artifacts with
// its loop-variable metadata, and aggregates them into series ready for
// plotting — the role of the paper's plotting scripts' data layer. It also
// provides the statistics the out-of-the-box plots need: histograms, CDFs,
// HDR-style quantiles, and violin summaries.
//
// Artifacts are parsed in place: ParseLatencyCSV, like moonparse.ParseBytes
// under LoadRuns, walks the bytes it is handed and retains none of them, so a
// caller may reuse the buffer as soon as the call returns.
package eval

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"

	"pos/internal/moonparse"
	"pos/internal/results"
)

// RunData is one measurement run joined with its metadata.
type RunData struct {
	Run      int
	LoopVars map[string]string
	Failed   bool
	// Report is the parsed MoonGen log (nil if the run carried none).
	Report *moonparse.Report
}

// LoopFloat parses a loop variable as float64.
func (r RunData) LoopFloat(name string) (float64, error) {
	v, ok := r.LoopVars[name]
	if !ok {
		return 0, fmt.Errorf("eval: run %d has no loop var %q", r.Run, name)
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("eval: run %d: loop var %s=%q: %w", r.Run, name, v, err)
	}
	return f, nil
}

// LoadRuns reads every run of an experiment, parsing the named MoonGen
// artifact from the given node when present. Failed runs are included with
// Failed=true so evaluations can decide how to treat them. A run without the
// artifact carries no report; any other read failure fails the load.
//
// Runs are loaded and parsed by a worker pool bounded by GOMAXPROCS — the
// evaluation phase of a large sweep is dominated by parsing per-run logs,
// which are independent. The result is deterministic: runs stay in run
// order and the error (if any) is the one the sequential loop would have
// returned first.
//
// Repeated loads of an unchanged experiment are served from the warm cache
// (see cache.go); any write through the results store invalidates it.
func LoadRuns(exp *results.Experiment, nodeName, artifact string) ([]RunData, error) {
	gen, cacheable := cacheGeneration(exp)
	key := cacheKey{dir: exp.Dir(), node: nodeName, artifact: artifact, kind: "runs"}
	if cacheable {
		if e := cacheLookup(key, gen); e != nil {
			return copyRuns(e.runs), nil
		}
	}
	runs, err := exp.Runs()
	if err != nil {
		return nil, err
	}
	out := make([]RunData, len(runs))
	errs := make([]error, len(runs))
	forEachRun(len(runs), func(i int) {
		run := runs[i]
		meta, err := exp.ReadRunMeta(run)
		if err != nil {
			errs[i] = err
			return
		}
		rd := RunData{Run: run, LoopVars: meta.LoopVars, Failed: meta.Failed}
		data, ok, err := readArtifact(exp, run, nodeName, artifact)
		if err != nil {
			errs[i] = err
			return
		}
		if ok {
			if rep, perr := moonparse.ParseBytes(data); perr == nil {
				rd.Report = rep
			}
		}
		out[i] = rd
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if cacheable {
		// Only valid if no write raced the load; a racing write moved the
		// generation on, so the entry would never hit and the store below
		// is harmless either way.
		if now, ok := cacheGeneration(exp); ok && now == gen {
			cacheStore(key, &cacheEntry{gen: gen, runs: copyRuns(out)})
		}
	}
	return out, nil
}

// readArtifact reads one run's artifact. ok is false with a nil error when
// the run has none — the one read failure that is not an error: a missing
// file is how a run says it produced no such artifact, anything else (a
// permission, an I/O error, a directory in the file's place) is a result
// tree evaluation must not silently plot around.
func readArtifact(exp *results.Experiment, run int, nodeName, artifact string) (data []byte, ok bool, err error) {
	data, err = exp.ReadRunArtifact(run, nodeName, artifact)
	switch {
	case err == nil:
		return data, true, nil
	case errors.Is(err, fs.ErrNotExist):
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("eval: run %d: %w", run, err)
	}
}

// forEachRun runs fn(i) for i in [0, n) on a worker pool bounded by
// GOMAXPROCS.
func forEachRun(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// Point is one (x, y) sample of a series. YErr, when non-zero, is the
// symmetric error (one standard deviation) attached by aggregation across
// repeated experiments.
type Point struct {
	X, Y float64
	YErr float64
}

// Series is a named sequence of points, sorted by X.
type Series struct {
	Name   string
	Points []Point
}

// ThroughputSeries builds one series per value of groupBy (e.g. pkt_sz),
// with X = the xVar loop variable (e.g. pkt_rate, in Mpps when scale=1e-6)
// and Y = received Mpps. Failed runs and runs without reports are skipped.
func ThroughputSeries(runs []RunData, groupBy, xVar string, xScale float64) ([]Series, error) {
	bySeries := make(map[string][]Point)
	for _, r := range runs {
		if r.Failed || r.Report == nil {
			continue
		}
		x, err := r.LoopFloat(xVar)
		if err != nil {
			return nil, err
		}
		key := r.LoopVars[groupBy]
		bySeries[key] = append(bySeries[key], Point{X: x * xScale, Y: r.Report.RxMpps()})
	}
	names := make([]string, 0, len(bySeries))
	for k := range bySeries {
		names = append(names, k)
	}
	sort.Strings(names)
	out := make([]Series, 0, len(names))
	for _, name := range names {
		pts := bySeries[name]
		sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
		out = append(out, Series{Name: name, Points: pts})
	}
	return out, nil
}

// ParseLatencyCSV reads MoonGen's histogram CSV convention: one latency
// value (nanoseconds) per line; blank lines and # comments are skipped. It
// scans data in place and returns nil when the artifact holds no value.
func ParseLatencyCSV(data []byte) ([]float64, error) {
	out := make([]float64, 0, bytes.Count(data, newline)+1)
	for lineNo := 1; len(data) > 0; lineNo++ {
		var line []byte
		line, data, _ = bytes.Cut(data, newline)
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		v, ok := parseNanos(line)
		if !ok {
			var err error
			v, err = strconv.ParseFloat(string(line), 64)
			if err != nil || v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("eval: latency CSV line %d: bad value %q", lineNo, line)
			}
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, nil // no values is no series: LoadLatency skips the artifact
	}
	return out, nil
}

var newline = []byte{'\n'}

// parseNanos is the exact fast path for what the artifact almost always
// holds: an unsigned integer of at most 15 digits, which is below 2^53 and
// so converts to the float64 strconv.ParseFloat returns for the same text.
func parseNanos(line []byte) (float64, bool) {
	if len(line) > 15 {
		return 0, false
	}
	var n uint64
	for _, c := range line {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return float64(n), true
}

// LoadLatency reads a latency-CSV artifact from every run of an experiment,
// keyed by the run's loop combination. Runs without the artifact are
// skipped (e.g. the whole experiment on vpos), as are artifacts without a
// value; any other read failure fails the load. Parsing happens on the same
// bounded worker pool as LoadRuns; samples are merged in run order, so the
// result is identical to a sequential load. Like LoadRuns, unchanged
// experiments are served from the warm cache.
func LoadLatency(exp *results.Experiment, nodeName, artifact string) (map[string][]float64, error) {
	gen, cacheable := cacheGeneration(exp)
	key := cacheKey{dir: exp.Dir(), node: nodeName, artifact: artifact, kind: "latency"}
	if cacheable {
		if e := cacheLookup(key, gen); e != nil {
			return copyLatency(e.latency), nil
		}
	}
	runs, err := exp.Runs()
	if err != nil {
		return nil, err
	}
	type parsed struct {
		key     string
		samples []float64
		err     error
	}
	perRun := make([]parsed, len(runs))
	forEachRun(len(runs), func(i int) {
		run := runs[i]
		meta, err := exp.ReadRunMeta(run)
		if err != nil {
			perRun[i].err = err
			return
		}
		data, ok, err := readArtifact(exp, run, nodeName, artifact)
		if !ok {
			perRun[i].err = err // nil: no artifact on this run, skipped
			return
		}
		samples, err := ParseLatencyCSV(data)
		if err != nil {
			perRun[i].err = fmt.Errorf("eval: run %d: %w", run, err)
			return
		}
		perRun[i] = parsed{key: results.LoopKey(meta.LoopVars), samples: samples}
	})
	// The first run of a combination keeps its parsed slice; runs that
	// repeat it append to it, in run order.
	out := make(map[string][]float64)
	for _, p := range perRun {
		switch {
		case p.err != nil:
			return nil, p.err
		case p.samples == nil:
		case out[p.key] == nil:
			out[p.key] = p.samples
		default:
			out[p.key] = append(out[p.key], p.samples...)
		}
	}
	if cacheable {
		if now, ok := cacheGeneration(exp); ok && now == gen {
			cacheStore(key, &cacheEntry{gen: gen, latency: out})
			return copyLatency(out), nil
		}
	}
	return out, nil
}

// AggregateSeries merges repeated measurements of the same series set into
// mean ± stddev series: each repetition contributes one []Series (same
// names, same x grid), the result has one point per (name, x) with Y = mean
// and YErr = sample standard deviation. Repetitions with diverging names or
// grids are rejected — aggregation across different experiments is a bug,
// not a feature.
func AggregateSeries(repetitions [][]Series) ([]Series, error) {
	if len(repetitions) == 0 {
		return nil, fmt.Errorf("eval: nothing to aggregate")
	}
	first := repetitions[0]
	for rep := 1; rep < len(repetitions); rep++ {
		cur := repetitions[rep]
		if len(cur) != len(first) {
			return nil, fmt.Errorf("eval: repetition %d has %d series, want %d", rep, len(cur), len(first))
		}
		for i := range cur {
			if cur[i].Name != first[i].Name {
				return nil, fmt.Errorf("eval: repetition %d series %q, want %q", rep, cur[i].Name, first[i].Name)
			}
			if len(cur[i].Points) != len(first[i].Points) {
				return nil, fmt.Errorf("eval: repetition %d series %q has %d points, want %d",
					rep, cur[i].Name, len(cur[i].Points), len(first[i].Points))
			}
			for j := range cur[i].Points {
				if cur[i].Points[j].X != first[i].Points[j].X {
					return nil, fmt.Errorf("eval: repetition %d series %q x grid differs at %d", rep, cur[i].Name, j)
				}
			}
		}
	}
	out := make([]Series, len(first))
	for i := range first {
		out[i] = Series{Name: first[i].Name, Points: make([]Point, len(first[i].Points))}
		for j := range first[i].Points {
			ys := make([]float64, len(repetitions))
			for rep := range repetitions {
				ys[rep] = repetitions[rep][i].Points[j].Y
			}
			s := Summarize(ys)
			out[i].Points[j] = Point{X: first[i].Points[j].X, Y: s.Mean, YErr: s.StdDev}
		}
	}
	return out, nil
}

// Summary holds basic sample statistics.
type Summary struct {
	N                int
	Mean, StdDev     float64
	Min, Max, Median float64
}

// Summarize computes summary statistics of xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.Median = Quantile(sorted, 0.5)
	var sum float64
	for _, x := range sorted {
		sum += x
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		var sq float64
		for _, x := range sorted {
			d := x - s.Mean
			sq += d * d
		}
		s.StdDev = math.Sqrt(sq / float64(s.N-1))
	}
	return s
}

// Quantile returns the q-quantile (0..1) of sorted data using linear
// interpolation. It panics on unsorted data only in the sense of returning
// nonsense; callers sort first.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CDF returns the empirical distribution of xs as monotonically
// non-decreasing points (x, P[X <= x]).
func CDF(xs []float64) []Point {
	if len(xs) == 0 {
		return nil
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]Point, 0, len(sorted))
	n := float64(len(sorted))
	for i, x := range sorted {
		// Collapse duplicate x to the highest probability.
		if len(out) > 0 && out[len(out)-1].X == x {
			out[len(out)-1].Y = float64(i+1) / n
			continue
		}
		out = append(out, Point{X: x, Y: float64(i+1) / n})
	}
	return out
}

// Histogram bins xs into bins equal-width buckets over [min, max]; it
// returns bucket centers and counts.
func Histogram(xs []float64, bins int) []Point {
	if len(xs) == 0 || bins <= 0 {
		return nil
	}
	min, max := xs[0], xs[0]
	for _, x := range xs {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	if min == max {
		return []Point{{X: min, Y: float64(len(xs))}}
	}
	width := (max - min) / float64(bins)
	counts := make([]float64, bins)
	for _, x := range xs {
		// Guard the extremes: (x-min)/width can be NaN or out of range
		// when the data spans nearly the whole float64 domain.
		i := int((x - min) / width)
		if i < 0 || math.IsNaN((x-min)/width) {
			i = 0
		}
		if i >= bins {
			i = bins - 1
		}
		counts[i]++
	}
	out := make([]Point, bins)
	for i, c := range counts {
		out[i] = Point{X: min + (float64(i)+0.5)*width, Y: c}
	}
	return out
}

// HDRQuantiles are the percentiles an HDR latency plot sweeps.
var HDRQuantiles = []float64{0.0, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0}

// HDR returns the latency-by-percentile curve (x = percentile in "nines"
// scale, y = value), the x-axis HDR histograms use: x = log10(1/(1-q)) so
// each additional nine occupies equal width. q=0 maps to x=0, q=1 is
// clamped to the largest finite x.
func HDR(xs []float64, quantiles []float64) []Point {
	if len(xs) == 0 {
		return nil
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]Point, 0, len(quantiles))
	for _, q := range quantiles {
		x := 0.0
		switch {
		case q <= 0:
			x = 0
		case q >= 1:
			x = math.Log10(float64(len(sorted)) * 10)
		default:
			x = math.Log10(1 / (1 - q))
		}
		out = append(out, Point{X: x, Y: Quantile(sorted, q)})
	}
	return out
}

// Violin summarizes a distribution for a violin plot: quartiles plus a
// kernel-density-like profile from the histogram.
type Violin struct {
	Summary Summary
	Q1, Q3  float64
	// Profile holds (value, density) pairs normalized to peak 1.
	Profile []Point
}

// ViolinStats computes the violin summary with the given profile
// resolution.
func ViolinStats(xs []float64, bins int) Violin {
	v := Violin{Summary: Summarize(xs)}
	if len(xs) == 0 {
		return v
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	v.Q1 = Quantile(sorted, 0.25)
	v.Q3 = Quantile(sorted, 0.75)
	hist := Histogram(xs, bins)
	var peak float64
	for _, p := range hist {
		if p.Y > peak {
			peak = p.Y
		}
	}
	if peak > 0 {
		v.Profile = make([]Point, len(hist))
		for i, p := range hist {
			v.Profile[i] = Point{X: p.X, Y: p.Y / peak}
		}
	}
	return v
}

// StabilityIndex quantifies how unstable a run's throughput was: the
// coefficient of variation of its per-second RX samples. The paper's Fig. 3b
// overload region shows exactly this instability.
func StabilityIndex(rep *moonparse.Report) float64 {
	samples := rep.SampleSeries(moonparse.RX)
	s := Summarize(samples)
	if s.Mean == 0 {
		return 0
	}
	return s.StdDev / s.Mean
}
