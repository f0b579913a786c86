package telemetry

import (
	"math"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"pos/internal/jsonenc"
)

// This file is the toolchain's only window onto the Go runtime's own
// telemetry (runtime/metrics): a point-in-time RuntimeStats reading, the
// per-run RuntimeDelta the runner archives as resources.json, and a
// RuntimeSampler that polls the runtime into the metrics registry on an
// interval. Everything else reads runtime conditions through here — the
// lint tier bans direct runtime/metrics use outside this package, so the
// set of sampled signals stays in one place.

// Runtime metric names sampled from runtime/metrics. All of them exist
// since Go 1.17; metrics.Read reports a bad Kind instead of failing if one
// ever disappears, and readRuntimeSamples skips it.
const (
	rmHeapBytes  = "/memory/classes/heap/objects:bytes"
	rmAllocBytes = "/gc/heap/allocs:bytes"
	rmGCCycles   = "/gc/cycles/total:gc-cycles"
	rmGoroutines = "/sched/goroutines:goroutines"
	rmGCPauses   = "/gc/pauses:seconds"
	rmSchedLat   = "/sched/latencies:seconds"
)

var runtimeSampleNames = []string{
	rmHeapBytes, rmAllocBytes, rmGCCycles, rmGoroutines, rmGCPauses, rmSchedLat,
}

// HistogramState is a raw runtime histogram reading: len(Buckets) ==
// len(Counts)+1, boundaries may include infinities at either end. Buckets is
// the runtime's own slice — the bounds of a metric never change while the
// process lives — and must not be written; Counts belongs to the reading.
type HistogramState struct {
	Buckets []float64
	Counts  []uint64
}

// histDelta is the growth of a cumulative runtime histogram from one reading
// to a later one, computed bucket by bucket as it is asked for.
type histDelta struct {
	start, end HistogramState
}

// sub returns the growth from start to h.
func (h HistogramState) sub(start HistogramState) histDelta {
	return histDelta{start: start, end: h}
}

// count is bucket i's growth. Shape changes (a different runtime version
// mid-process cannot happen; defensive anyway) yield the later reading's
// count unchanged.
func (d histDelta) count(i int) uint64 {
	c := d.end.Counts[i]
	if len(d.start.Counts) != len(d.end.Counts) {
		return c
	}
	if s := d.start.Counts[i]; s <= c {
		return c - s
	}
	return 0
}

func (d histDelta) total() uint64 {
	var n uint64
	for i := range d.end.Counts {
		n += d.count(i)
	}
	return n
}

// bucketValue picks the representative sample value for bucket i: the
// midpoint of its boundaries, clamped to the finite edge when one side is
// infinite.
func (d histDelta) bucketValue(i int) float64 {
	lo, hi := d.end.Buckets[i], d.end.Buckets[i+1]
	switch {
	case isInf(lo) && isInf(hi):
		return 0
	case isInf(lo):
		return hi
	case isInf(hi):
		return lo
	default:
		return (lo + hi) / 2
	}
}

func isInf(v float64) bool { return math.IsInf(v, 0) }

// approxSum estimates the summed sample value (counts × representative
// bucket values).
func (d histDelta) approxSum() float64 {
	var sum float64
	for i := range d.end.Counts {
		if c := d.count(i); c > 0 {
			sum += float64(c) * d.bucketValue(i)
		}
	}
	return sum
}

// maxValue returns the upper edge of the highest non-empty bucket (clamped
// finite), or zero when empty.
func (d histDelta) maxValue() float64 {
	for i := len(d.end.Counts) - 1; i >= 0; i-- {
		if d.count(i) > 0 {
			hi := d.end.Buckets[i+1]
			if isInf(hi) {
				return d.end.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

// quantile estimates the q-quantile over the delta's counts, linearly
// interpolated inside the containing bucket.
func (d histDelta) quantile(q float64) float64 {
	total := d.total()
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
	var cum float64
	for i := range d.end.Counts {
		c := d.count(i)
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		lo, hi := d.end.Buckets[i], d.end.Buckets[i+1]
		if isInf(hi) {
			hi = lo
		}
		if isInf(lo) {
			lo = hi
		}
		frac := 1 - (cum-rank)/float64(c)
		return lo + (hi-lo)*frac
	}
	return d.maxValue()
}

// RuntimeStats is one point-in-time reading of the Go runtime's own
// telemetry — the raw material of per-run resource attribution.
type RuntimeStats struct {
	At         time.Time
	HeapBytes  uint64 // live heap object bytes
	AllocBytes uint64 // cumulative allocated bytes
	GCCycles   uint64 // cumulative completed GC cycles
	Goroutines uint64
	GCPauses   HistogramState // cumulative stop-the-world pause distribution
	SchedLat   HistogramState // cumulative goroutine scheduling latency
}

// samplePool recycles the sample slices handed to metrics.Read. A recycled
// slice still carries its histograms, and the runtime refills their counts
// in place instead of allocating new ones.
var samplePool = sync.Pool{New: func() any {
	samples := make([]metrics.Sample, len(runtimeSampleNames))
	for i, n := range runtimeSampleNames {
		samples[i].Name = n
	}
	return &samples
}}

// ReadRuntimeStats samples the runtime now.
func ReadRuntimeStats() RuntimeStats {
	pooled := samplePool.Get().(*[]metrics.Sample)
	defer samplePool.Put(pooled)
	samples := *pooled
	metrics.Read(samples)
	st := RuntimeStats{At: time.Now()}
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			v := s.Value.Uint64()
			switch s.Name {
			case rmHeapBytes:
				st.HeapBytes = v
			case rmAllocBytes:
				st.AllocBytes = v
			case rmGCCycles:
				st.GCCycles = v
			case rmGoroutines:
				st.Goroutines = v
			}
		case metrics.KindFloat64Histogram:
			h := s.Value.Float64Histogram()
			hs := HistogramState{Buckets: h.Buckets, Counts: append([]uint64(nil), h.Counts...)}
			switch s.Name {
			case rmGCPauses:
				st.GCPauses = hs
			case rmSchedLat:
				st.SchedLat = hs
			}
		}
	}
	return st
}

// RuntimeDelta is the host-condition record of one measurement run: what
// the Go runtime did between the run's start and finish. It is archived
// verbatim as the run's resources.json — a result without it cannot tell a
// genuine latency plateau from a GC pause that landed mid-measurement.
type RuntimeDelta struct {
	StartedAt         time.Time `json:"started_at"`
	FinishedAt        time.Time `json:"finished_at"`
	WallSeconds       float64   `json:"wall_seconds"`
	HeapBytesStart    uint64    `json:"heap_bytes_start"`
	HeapBytesEnd      uint64    `json:"heap_bytes_end"`
	AllocBytes        uint64    `json:"alloc_bytes"`
	GCCycles          uint64    `json:"gc_cycles"`
	GCPauseSeconds    float64   `json:"gc_pause_seconds"`
	GCPauseMaxSeconds float64   `json:"gc_pause_max_seconds"`
	GoroutinesStart   uint64    `json:"goroutines_start"`
	GoroutinesEnd     uint64    `json:"goroutines_end"`
	SchedLatencyP50   float64   `json:"sched_latency_p50_seconds"`
	SchedLatencyP99   float64   `json:"sched_latency_p99_seconds"`
}

// AppendIndentJSON appends the record as resources.json holds it: the bytes
// json.MarshalIndent(d, "", "  ") produces, written field by field. It fails
// where MarshalIndent fails — a float that is not finite, a timestamp RFC 3339
// cannot carry.
func (d RuntimeDelta) AppendIndentJSON(dst []byte) ([]byte, error) {
	var err error
	field := func(name string) {
		if dst[len(dst)-1] != '{' {
			dst = append(dst, ',')
		}
		dst = append(dst, "\n  \""...)
		dst = append(dst, name...)
		dst = append(dst, "\": "...)
	}
	timeField := func(name string, v time.Time) {
		if err == nil {
			field(name)
			dst, err = jsonenc.AppendTime(dst, v)
		}
	}
	floatField := func(name string, v float64) {
		if err == nil {
			field(name)
			dst, err = jsonenc.AppendFloat(dst, v)
		}
	}
	uintField := func(name string, v uint64) {
		if err == nil {
			field(name)
			dst = strconv.AppendUint(dst, v, 10)
		}
	}
	dst = append(dst, '{')
	timeField("started_at", d.StartedAt)
	timeField("finished_at", d.FinishedAt)
	floatField("wall_seconds", d.WallSeconds)
	uintField("heap_bytes_start", d.HeapBytesStart)
	uintField("heap_bytes_end", d.HeapBytesEnd)
	uintField("alloc_bytes", d.AllocBytes)
	uintField("gc_cycles", d.GCCycles)
	floatField("gc_pause_seconds", d.GCPauseSeconds)
	floatField("gc_pause_max_seconds", d.GCPauseMaxSeconds)
	uintField("goroutines_start", d.GoroutinesStart)
	uintField("goroutines_end", d.GoroutinesEnd)
	floatField("sched_latency_p50_seconds", d.SchedLatencyP50)
	floatField("sched_latency_p99_seconds", d.SchedLatencyP99)
	if err != nil {
		return dst, err
	}
	return append(dst, "\n}"...), nil
}

// DeltaTo computes the runtime activity between s and end.
func (s RuntimeStats) DeltaTo(end RuntimeStats) RuntimeDelta {
	pauses := end.GCPauses.sub(s.GCPauses)
	sched := end.SchedLat.sub(s.SchedLat)
	d := RuntimeDelta{
		StartedAt:         s.At,
		FinishedAt:        end.At,
		WallSeconds:       end.At.Sub(s.At).Seconds(),
		HeapBytesStart:    s.HeapBytes,
		HeapBytesEnd:      end.HeapBytes,
		GoroutinesStart:   s.Goroutines,
		GoroutinesEnd:     end.Goroutines,
		GCPauseSeconds:    pauses.approxSum(),
		GCPauseMaxSeconds: pauses.maxValue(),
		SchedLatencyP50:   sched.quantile(0.50),
		SchedLatencyP99:   sched.quantile(0.99),
	}
	if end.AllocBytes >= s.AllocBytes {
		d.AllocBytes = end.AllocBytes - s.AllocBytes
	}
	if end.GCCycles >= s.GCCycles {
		d.GCCycles = end.GCCycles - s.GCCycles
	}
	return d
}

// runtimeBuckets are the fixed bounds (seconds) for the sampler's GC-pause
// and scheduling-latency histograms: 1µs .. 1s in decade steps with a 2.5/5
// split where pauses actually land.
func runtimeBuckets() []float64 {
	return []float64{1e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1}
}

// RuntimeSampler polls the Go runtime into a metrics registry on an
// interval, so heap, GC, and scheduler pressure show up next to the
// toolchain's own metrics in /metrics, /api/v1/metrics, and posctl top.
// Cumulative runtime signals are converted to registry counters/histograms
// by delta against the previous poll.
type RuntimeSampler struct {
	interval time.Duration

	heapBytes  *Gauge
	goroutines *Gauge
	allocBytes *Counter
	samples    *Counter
	gcPause    *Histogram
	schedLat   *Histogram

	mu   sync.Mutex
	last RuntimeStats
	has  bool
	stop chan struct{}
	done chan struct{}
}

// NewRuntimeSampler registers the pos_runtime_* metrics on reg and returns
// a sampler polling every interval once started (minimum 100ms; zero
// defaults to 2s).
func NewRuntimeSampler(reg *Registry, interval time.Duration) *RuntimeSampler {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	return &RuntimeSampler{
		interval: interval,
		heapBytes: reg.Gauge("pos_runtime_heap_bytes",
			"Live heap object bytes at the last runtime sample."),
		goroutines: reg.Gauge("pos_runtime_goroutines",
			"Goroutines at the last runtime sample."),
		allocBytes: reg.Counter("pos_runtime_alloc_bytes_total",
			"Heap bytes allocated since sampling started."),
		samples: reg.Counter("pos_runtime_samples_total",
			"Runtime samples taken."),
		gcPause: reg.Histogram("pos_runtime_gc_pause_seconds",
			"Stop-the-world GC pause durations observed between samples.", runtimeBuckets()),
		schedLat: reg.Histogram("pos_runtime_sched_latency_seconds",
			"Goroutine scheduling latencies observed between samples.", runtimeBuckets()),
	}
}

// Sample takes one poll immediately: gauges are set to the current reading,
// cumulative signals feed the counters/histograms by delta against the
// previous poll. Safe to call concurrently with a running sampler.
func (s *RuntimeSampler) Sample() {
	cur := ReadRuntimeStats()
	s.mu.Lock()
	prev, has := s.last, s.has
	s.last, s.has = cur, true
	s.mu.Unlock()

	s.heapBytes.Set(float64(cur.HeapBytes))
	s.goroutines.Set(float64(cur.Goroutines))
	s.samples.Inc()
	if !has {
		return
	}
	if cur.AllocBytes >= prev.AllocBytes {
		s.allocBytes.Add(float64(cur.AllocBytes - prev.AllocBytes))
	}
	observeHist(s.gcPause, cur.GCPauses.sub(prev.GCPauses))
	observeHist(s.schedLat, cur.SchedLat.sub(prev.SchedLat))
}

// observeHist bulk-replays a runtime histogram delta into a registry
// histogram, one ObserveN per non-empty bucket at its representative value.
func observeHist(h *Histogram, delta histDelta) {
	for i := range delta.end.Counts {
		if c := delta.count(i); c > 0 {
			h.ObserveN(delta.bucketValue(i), c)
		}
	}
}

// Start begins periodic sampling (idempotent while running). The first
// sample is taken synchronously so gauges are populated on return.
func (s *RuntimeSampler) Start() {
	s.mu.Lock()
	if s.stop != nil {
		s.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	s.stop, s.done = stop, done
	s.mu.Unlock()

	s.Sample()
	go func() {
		defer close(done)
		t := time.NewTicker(s.interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				s.Sample()
			}
		}
	}()
}

// Stop halts periodic sampling and waits for the poll goroutine to exit.
// The sampler can be started again afterwards.
func (s *RuntimeSampler) Stop() {
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
