// Package telemetry is the controller's observability layer: a lock-cheap
// metrics registry (atomic counters, gauges, fixed-bucket histograms) with
// Prometheus text-format exposition, and hierarchical spans carried through
// context.Context so a campaign can be rendered as a flamegraph after the
// fact. The package is a leaf — every other internal package may import it —
// and all hot-path operations are a couple of atomic instructions so
// instrumentation can stay on permanently.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric kinds as reported in exposition output.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

var metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// Registry holds a process's metric families. The zero value is not usable;
// call NewRegistry, or use the package-level Default registry shared by the
// instrumented subsystems.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	disabled atomic.Bool
}

// Default is the process-wide registry the instrumented packages (api, core,
// sched, results, eval, hosttools) record into. Using a shared registry keeps
// hot paths free of constructor plumbing, mirroring expvar.
var Default = NewRegistry()

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// SetEnabled toggles recording. While disabled, Inc/Add/Set/Observe are
// no-ops (a single atomic load), which is what the instrumented-vs-bare
// overhead benchmark compares. Registration and exposition keep working.
func (r *Registry) SetEnabled(on bool) { r.disabled.Store(!on) }

// Enabled reports whether the registry records samples.
func (r *Registry) Enabled() bool { return !r.disabled.Load() }

// family is one named metric with its children (one per label-value tuple;
// unlabelled metrics have a single child under the empty key).
type family struct {
	reg    *Registry
	name   string
	help   string
	typ    string
	labels []string
	bounds []float64 // histograms only

	mu       sync.Mutex
	children map[string]*child
}

type child struct {
	fam    *family
	values []string // label values, aligned with fam.labels

	val     atomic.Uint64 // counter/gauge payload as float64 bits
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // float64 bits, CAS-updated
}

func (r *Registry) register(name, help, typ string, labels []string, bounds []float64) *family {
	if !metricNameRe.MatchString(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %s(%d labels), was %s(%d labels)",
				name, typ, len(labels), f.typ, len(f.labels)))
		}
		return f
	}
	f := &family{
		reg:      r,
		name:     name,
		help:     help,
		typ:      typ,
		labels:   labels,
		bounds:   bounds,
		children: make(map[string]*child),
	}
	r.families[name] = f
	return f
}

func (f *family) child(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x1f")
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := &child{fam: f, values: append([]string(nil), values...)}
	if f.typ == TypeHistogram {
		c.buckets = make([]atomic.Uint64, len(f.bounds)+1)
	}
	f.children[key] = c
	return c
}

func (c *child) on() bool { return !c.fam.reg.disabled.Load() }

// addFloat CAS-adds delta into a float64 stored as uint64 bits.
func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Counter is a monotonically increasing value.
type Counter struct{ c *child }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by delta; negative deltas are ignored.
func (c *Counter) Add(delta float64) {
	if delta < 0 || !c.c.on() {
		return
	}
	addFloat(&c.c.val, delta)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.c.val.Load()) }

// Gauge is a value that can go up and down.
type Gauge struct{ c *child }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if !g.c.on() {
		return
	}
	g.c.val.Store(math.Float64bits(v))
}

// Add shifts the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta float64) {
	if !g.c.on() {
		return
	}
	addFloat(&g.c.val, delta)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current gauge reading.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.c.val.Load()) }

// Histogram counts observations into fixed buckets.
type Histogram struct{ c *child }

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if !h.c.on() {
		return
	}
	c := h.c
	i := sort.SearchFloat64s(c.fam.bounds, v) // first bound >= v: le-bucket
	c.buckets[i].Add(1)
	c.count.Add(1)
	addFloat(&c.sum, v)
}

// ObserveN records n identical samples in one shot — the bulk form used by
// hot paths that aggregate locally (e.g. a precomputed emission schedule)
// and flush once instead of paying three atomics per sample.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if n == 0 || !h.c.on() {
		return
	}
	c := h.c
	i := sort.SearchFloat64s(c.fam.bounds, v) // first bound >= v: le-bucket
	c.buckets[i].Add(n)
	c.count.Add(n)
	addFloat(&c.sum, v*float64(n))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.c.count.Load() }

// Sum returns the running sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.c.sum.Load()) }

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (created on first use).
func (v *CounterVec) With(values ...string) *Counter { return &Counter{c: v.f.child(values)} }

// HistogramVec is a histogram family keyed by label values.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return &Histogram{c: v.f.child(values)} }

// Counter registers (or returns the existing) unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return &Counter{c: r.register(name, help, TypeCounter, nil, nil).child(nil)}
}

// CounterVec registers a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, TypeCounter, labels, nil)}
}

// Gauge registers (or returns the existing) unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return &Gauge{c: r.register(name, help, TypeGauge, nil, nil).child(nil)}
}

// Histogram registers an unlabelled histogram with the given bucket upper
// bounds (sorted ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return &Histogram{c: r.register(name, help, TypeHistogram, nil, checkBounds(bounds)).child(nil)}
}

// HistogramVec registers a labelled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, TypeHistogram, labels, checkBounds(bounds))}
}

func checkBounds(bounds []float64) []float64 {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram bounds must be strictly ascending")
		}
	}
	return append([]float64(nil), bounds...)
}

// DurationBuckets are the default bounds (seconds) for phase/latency
// histograms: 1ms .. ~100s in roughly 1-2.5-5 steps.
func DurationBuckets() []float64 {
	return []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
		0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100}
}

// Snapshot is the registry's JSON view, served by the api as
// GET /api/v1/metrics.
type Snapshot struct {
	Metrics []MetricSnapshot `json:"metrics"`
}

// MetricSnapshot is one metric family in a Snapshot.
type MetricSnapshot struct {
	Name   string          `json:"name"`
	Type   string          `json:"type"`
	Help   string          `json:"help,omitempty"`
	Values []ValueSnapshot `json:"values"`
}

// ValueSnapshot is one labelled series of a metric family.
type ValueSnapshot struct {
	Labels  map[string]string `json:"labels,omitempty"`
	Value   float64           `json:"value,omitempty"`
	Count   uint64            `json:"count,omitempty"`
	Sum     float64           `json:"sum,omitempty"`
	Buckets []BucketSnapshot  `json:"buckets,omitempty"`
	// Quantiles are estimated p50/p90/p99 values for histogram series
	// (keys "p50", "p90", "p99"), present when the series has
	// observations. They are snapshot-side estimates from the fixed
	// buckets; the Prometheus text exposition is unchanged.
	Quantiles map[string]float64 `json:"quantiles,omitempty"`
}

// BucketSnapshot is one cumulative histogram bucket.
type BucketSnapshot struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// MarshalJSON encodes the +Inf bound as the string "+Inf" (JSON has no Inf).
func (b BucketSnapshot) MarshalJSON() ([]byte, error) {
	le := "+Inf"
	if !math.IsInf(b.LE, 1) {
		le = strconv.FormatFloat(b.LE, 'g', -1, 64)
	}
	return json.Marshal(struct {
		LE    string `json:"le"`
		Count uint64 `json:"count"`
	}{le, b.Count})
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (b *BucketSnapshot) UnmarshalJSON(data []byte) error {
	var raw struct {
		LE    string `json:"le"`
		Count uint64 `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	if raw.LE == "+Inf" {
		b.LE = math.Inf(1)
	} else {
		v, err := strconv.ParseFloat(raw.LE, 64)
		if err != nil {
			return err
		}
		b.LE = v
	}
	b.Count = raw.Count
	return nil
}

// sortedFamilies snapshots the family list ordered by name.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

func (f *family) sortedChildren() []*child {
	f.mu.Lock()
	kids := make([]*child, 0, len(f.children))
	for _, c := range f.children {
		kids = append(kids, c)
	}
	f.mu.Unlock()
	sort.Slice(kids, func(i, j int) bool {
		return strings.Join(kids[i].values, "\x1f") < strings.Join(kids[j].values, "\x1f")
	})
	return kids
}

// Snapshot captures all families and series. Concurrent-safe; values are read
// atomically per series (not as one consistent cut, which exposition formats
// never promise anyway).
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	for _, f := range r.sortedFamilies() {
		m := MetricSnapshot{Name: f.name, Type: f.typ, Help: f.help}
		for _, c := range f.sortedChildren() {
			v := ValueSnapshot{}
			if len(f.labels) > 0 {
				v.Labels = make(map[string]string, len(f.labels))
				for i, l := range f.labels {
					v.Labels[l] = c.values[i]
				}
			}
			if f.typ == TypeHistogram {
				v.Count = c.count.Load()
				v.Sum = math.Float64frombits(c.sum.Load())
				cum := uint64(0)
				for i, bound := range f.bounds {
					cum += c.buckets[i].Load()
					v.Buckets = append(v.Buckets, BucketSnapshot{LE: bound, Count: cum})
				}
				cum += c.buckets[len(f.bounds)].Load()
				v.Buckets = append(v.Buckets, BucketSnapshot{LE: math.Inf(1), Count: cum})
				if cum > 0 {
					v.Quantiles = map[string]float64{
						"p50": Quantile(v.Buckets, 0.50),
						"p90": Quantile(v.Buckets, 0.90),
						"p99": Quantile(v.Buckets, 0.99),
					}
				}
			} else {
				v.Value = math.Float64frombits(c.val.Load())
			}
			m.Values = append(m.Values, v)
		}
		snap.Metrics = append(snap.Metrics, m)
	}
	return snap
}

// Quantile estimates the q-quantile (0..1) from cumulative histogram
// buckets, interpolating linearly within the containing bucket — the same
// estimate Prometheus's histogram_quantile computes. The lowest bucket
// interpolates from zero; a quantile landing in the +Inf bucket returns the
// highest finite bound, because fixed buckets cannot resolve past their last
// edge. Zero observations yield zero.
func Quantile(buckets []BucketSnapshot, q float64) float64 {
	if len(buckets) == 0 {
		return 0
	}
	total := buckets[len(buckets)-1].Count
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	for i, b := range buckets {
		if float64(b.Count) < rank {
			continue
		}
		lower, lowerCount := 0.0, uint64(0)
		if i > 0 {
			lower, lowerCount = buckets[i-1].LE, buckets[i-1].Count
		}
		if math.IsInf(b.LE, 1) {
			return lower
		}
		inBucket := b.Count - lowerCount
		if inBucket == 0 {
			return b.LE
		}
		frac := (rank - float64(lowerCount)) / float64(inBucket)
		return lower + (b.LE-lower)*frac
	}
	return buckets[len(buckets)-1].LE
}

// Total sums a family's series — counter/gauge values, or observation counts
// for histograms — and reports whether the family is registered. The health
// watchdog's probes read progress signals this way by metric name, without
// holding references into other packages' metric variables.
func (r *Registry) Total(name string) (float64, bool) {
	r.mu.Lock()
	f, ok := r.families[name]
	r.mu.Unlock()
	if !ok {
		return 0, false
	}
	var total float64
	f.mu.Lock()
	for _, c := range f.children {
		if f.typ == TypeHistogram {
			total += float64(c.count.Load())
		} else {
			total += math.Float64frombits(c.val.Load())
		}
	}
	f.mu.Unlock()
	return total, true
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func formatLabels(names, values []string, extra ...string) string {
	if len(names) == 0 && len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	first := true
	emit := func(name, value string) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(name)
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(value))
		b.WriteByte('"')
	}
	for i, n := range names {
		emit(n, values[i])
	}
	for i := 0; i+1 < len(extra); i += 2 {
		emit(extra[i], extra[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the registry in Prometheus text exposition format
// (version 0.0.4): # HELP / # TYPE comments followed by sample lines, metric
// families sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, c := range f.sortedChildren() {
			if err := c.writePrometheus(w); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *child) writePrometheus(w io.Writer) error {
	f := c.fam
	switch f.typ {
	case TypeHistogram:
		cum := uint64(0)
		for i, bound := range f.bounds {
			cum += c.buckets[i].Load()
			labels := formatLabels(f.labels, c.values, "le", formatValue(bound))
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labels, cum); err != nil {
				return err
			}
		}
		cum += c.buckets[len(f.bounds)].Load()
		labels := formatLabels(f.labels, c.values, "le", "+Inf")
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labels, cum); err != nil {
			return err
		}
		base := formatLabels(f.labels, c.values)
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, base,
			formatValue(math.Float64frombits(c.sum.Load()))); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, base, cum)
		return err
	default:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, formatLabels(f.labels, c.values),
			formatValue(math.Float64frombits(c.val.Load())))
		return err
	}
}
