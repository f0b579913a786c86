package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pos/internal/results"
	"pos/internal/telemetry"
)

// A workload is one closed-loop load: setup builds fixtures, topologies and
// servers; burst runs one client iteration and returns the ops it completed,
// each timed in three consecutive steps and verified.
type workload interface {
	// steps names the three consecutive steps that partition an op.
	steps() [3]string
	// warmup is the fixed number of bursts per client inside setup_s.
	warmup() int
	clients() int
	setup(seed uint64, dir string) error
	burst(client int, tr *tracer) burstResult
	// finish runs once after the timed window, before teardown, and returns
	// layer values only measurable then (queue journal replay).
	finish() map[string]float64
	teardown()
	oracleState() *oracle
}

// opResult is one op: its wall time, the three steps that partition it, and
// the digest of its simulated statistics ("" when the op failed).
type opResult struct {
	total time.Duration
	steps [3]time.Duration
	// layer holds per-op values the op collected for the per-layer metrics
	// (simulated packets per step, timeline phases); the run reports each
	// key's median over the timed ops.
	layer  map[string]float64
	digest string
	err    error
}

// burstResult is one closed-loop client iteration. house is time spent
// between ops outside every timer (verification reads, tree removal).
type burstResult struct {
	ops   []opResult
	house time.Duration
}

// span is one in-memory trace record around a call into a layer.
type span struct {
	Name   string `json:"name"`
	Client int    `json:"client"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // index into the client's spans, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans for one client. Off, begin/end cost one branch.
type tracer struct {
	t0     time.Time
	client int
	on     bool
	op     int
	stack  []int
	spans  []span
}

func (t *tracer) begin(name string) {
	if !t.on {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.stack = append(t.stack, len(t.spans))
	t.spans = append(t.spans, span{Name: name, Client: t.client, Op: t.op, Parent: parent, Start: int64(time.Since(t.t0))})
}

func (t *tracer) end() {
	if !t.on {
		return
	}
	n := len(t.stack) - 1
	t.spans[t.stack[n]].End = int64(time.Since(t.t0))
	t.stack = t.stack[:n]
}

// add records a finished span whose op is not the innermost open one (the
// queue client keeps four ops in flight).
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Client: t.client, Op: op, Parent: parent,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return len(t.spans) - 1
}

// opTimer times one sequential op: start, two step boundaries, stop. The
// boundaries are shared, so the steps partition the op exactly.
type opTimer struct {
	tr    *tracer
	names [3]string
	marks [4]time.Time
	n     int
}

func startOp(tr *tracer, names [3]string) *opTimer {
	o := &opTimer{tr: tr, names: names}
	tr.begin("op")
	tr.begin(names[0])
	o.marks[0] = time.Now()
	o.n = 1
	return o
}

func (o *opTimer) next() {
	o.marks[o.n] = time.Now()
	o.tr.end()
	o.tr.begin(o.names[o.n])
	o.n++
}

func (o *opTimer) stop() opResult {
	o.marks[3] = time.Now()
	o.tr.end()
	o.tr.end()
	var r opResult
	r.total = o.marks[3].Sub(o.marks[0])
	for i := range r.steps {
		r.steps[i] = o.marks[i+1].Sub(o.marks[i])
	}
	return r
}

// abort closes the spans of an op that failed mid-way.
func (o *opTimer) abort(err error) opResult {
	for range o.tr.stack {
		o.tr.end()
	}
	return opResult{err: err}
}

// hasher digests an op's simulated statistics.
type hasher struct{ hash.Hash }

func newHasher() hasher { return hasher{sha256.New()} }

func (h hasher) printf(format string, args ...any) { fmt.Fprintf(h, format, args...) }

func (h hasher) floats(xs []float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

// meta hashes a run's metadata with the wall-clock fields left out.
func (h hasher) meta(m results.RunMeta) {
	keys := make([]string, 0, len(m.LoopVars))
	for k := range m.LoopVars {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h.printf("run %d failed=%v err=%q", m.Run, m.Failed, m.Error)
	for _, k := range keys {
		h.printf(" %s=%s", k, m.LoopVars[k])
	}
}

func (h hasher) sum() string { return hex.EncodeToString(h.Sum(nil)) }

// ---- statistics ----

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ---- process-level counters ----

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// calibrate hashes a fixed 64 MiB in four 16 MiB passes and reports four
// times the fastest: a noisy-neighbour sentinel whose cost depends on the
// host alone, never on the program under test. Taking the fastest pass keeps
// a single preemption from reading as a slow host. The buffer is 1 MiB hashed
// sixteen times a pass, so the sentinel adds nothing to peak_rss_mb.
func calibrate() float64 {
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	best := time.Duration(1 << 62)
	for pass := 0; pass < 4; pass++ {
		h := sha256.New()
		start := time.Now()
		for i := 0; i < 16; i++ {
			h.Write(buf)
		}
		h.Sum(nil)
		best = min(best, time.Since(start))
	}
	return 4 * ms(best)
}

// ---- telemetry deltas ----

// telemetryDelta answers "how much did series X grow over the window". A
// series the program no longer registers reports ok=false, never an error.
type telemetryDelta struct{ before, after telemetry.Snapshot }

func seriesTotal(s telemetry.Snapshot, name string, match map[string]string, field string) (float64, bool) {
	for _, m := range s.Metrics {
		if m.Name != name {
			continue
		}
		total := 0.0
	values:
		for _, v := range m.Values {
			for k, want := range match {
				if v.Labels[k] != want {
					continue values
				}
			}
			if field == "sum" {
				total += v.Sum
			} else {
				total += v.Value
			}
		}
		return total, true
	}
	return 0, false
}

func (d telemetryDelta) of(name string, match map[string]string, field string) (float64, bool) {
	a, ok := seriesTotal(d.after, name, match, field)
	if !ok {
		return 0, false
	}
	b, _ := seriesTotal(d.before, name, match, field)
	return a - b, true
}

// ---- one measured run of one workload ----

type runConfig struct {
	Workload string
	Seed     uint64
	Window   time.Duration
	MaxOps   int // >0: stop each client after this many bursts (smoke test)
	Warmup   int // >=0 overrides the workload's warm-up count (smoke test)
	Setups   int // set-ups per run; setup_s is their median
	Trace    bool
	Dir      string // scratch root for stores, journals, archives
}

// runResult is everything one run measured, before it is turned into named
// metrics.
type runResult struct {
	cfg        runConfig
	w          workload
	setups     []float64 // seconds
	samples    []opResult
	attempted  int
	failed     int
	firstErr   error
	bursts     []burstStamp
	marks      []sliceMark
	wall       time.Duration
	mem0, mem1 runtime.MemStats
	goPeak     int
	calib      [2]float64
	spans      [][]span
	tele       telemetryDelta
	final      map[string]float64
}

// sliceLen is how long one slice of the timed window lasts. The hosts this
// runs on slow down by 10 to 25 % for seconds at a time when a neighbour is
// busy, and interference only ever adds time: over the 30 s windows of one
// 300 s series the whole-window op median spread over 12 % where that of the
// quietest seconds spread over 3 %. So the window is cut into slices, the
// slices are ranked by their op median, and every timing metric is measured
// over the ops of the quietest fifth (metrics.go, quiet): one set of ops for
// all of them. A second holds 16 to 90 ops of the four workloads, so a fifth
// of a 30 s window holds 100 to 540.
const sliceLen = time.Second

// burstStamp is one completed burst of the timed window.
type burstStamp struct {
	client int
	at     time.Duration // completion, from the window's start
	busy   time.Duration // the burst's wall time minus its housekeeping
	ops    []opResult    // the ops that passed their check
	traced bool
}

// sliceMark ends a slice: the first burst completion at least sliceLen after
// the previous mark, with the process's CPU time read there. Slices end on
// burst boundaries so that each holds whole bursts.
type sliceMark struct{ at, cpu time.Duration }

type clientLoop struct {
	tr     tracer
	bursts []burstStamp
	failed []error
	goPeak int
}

func runWorkload(cfg runConfig) (*runResult, error) {
	res := &runResult{cfg: cfg}
	res.calib[0] = calibrate()

	// Set-up, several times: each is fixture generation, construction, the
	// fixed warm-up and one GC. The last one is kept for the timed window.
	var w workload
	for k := 0; k < cfg.Setups; k++ {
		dir, err := os.MkdirTemp(cfg.Dir, cfg.Workload+"-")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		w, err = newWorkload(cfg.Workload)
		if err != nil {
			return nil, err
		}
		if err := w.setup(cfg.Seed, dir); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", cfg.Workload, err)
		}
		warm := w.warmup()
		if cfg.Warmup >= 0 {
			warm = cfg.Warmup
		}
		if err := warmUp(w, warm); err != nil {
			w.teardown()
			return nil, fmt.Errorf("%s: warm-up: %w", cfg.Workload, err)
		}
		runtime.GC()
		res.setups = append(res.setups, time.Since(start).Seconds())
		if k < cfg.Setups-1 {
			w.teardown()
		}
	}
	res.w = w
	defer w.teardown()

	if cfg.Trace {
		res.tele.before = telemetry.Default.Snapshot()
	}
	loops := make([]*clientLoop, w.clients())
	t0 := time.Now()
	for c := range loops {
		loops[c] = &clientLoop{tr: tracer{t0: t0, client: c}}
	}
	runtime.ReadMemStats(&res.mem0)
	start := time.Now()
	deadline := start.Add(cfg.Window)
	var mu sync.Mutex // guards res.marks
	res.marks = []sliceMark{{0, cpuTime()}}
	var wg sync.WaitGroup
	for c, l := range loops {
		wg.Add(1)
		go func(c int, l *clientLoop) {
			defer wg.Done()
			for i := 0; ; i++ {
				if cfg.MaxOps > 0 && i >= cfg.MaxOps {
					break
				}
				if cfg.MaxOps <= 0 && !time.Now().Before(deadline) {
					break
				}
				// Traced runs alternate traced and untraced bursts, so
				// the tracing overhead is a paired comparison inside one
				// run rather than a difference between two noisy runs.
				l.tr.on = cfg.Trace && i%2 == 1
				begin := time.Now()
				b := w.burst(c, &l.tr)
				end := time.Now()
				stamp := burstStamp{client: c, at: end.Sub(start), busy: end.Sub(begin) - b.house, traced: l.tr.on}
				for _, op := range b.ops {
					if op.err != nil {
						l.failed = append(l.failed, op.err)
						continue
					}
					stamp.ops = append(stamp.ops, op)
				}
				l.bursts = append(l.bursts, stamp)
				l.tr.op += len(b.ops)
				mu.Lock()
				if stamp.at >= res.marks[len(res.marks)-1].at+sliceLen {
					res.marks = append(res.marks, sliceMark{stamp.at, cpuTime()})
				}
				mu.Unlock()
				if g := runtime.NumGoroutine(); g > l.goPeak {
					l.goPeak = g
				}
			}
		}(c, l)
	}
	wg.Wait()
	res.wall = time.Since(start)
	if len(res.marks) == 1 {
		// A run too short for one slice (the smoke test) is one slice.
		res.marks = append(res.marks, sliceMark{res.wall, cpuTime()})
	}
	runtime.ReadMemStats(&res.mem1)
	if cfg.Trace {
		res.tele.after = telemetry.Default.Snapshot()
	}
	for _, l := range loops {
		res.bursts = append(res.bursts, l.bursts...)
		res.spans = append(res.spans, l.tr.spans)
		res.goPeak = max(res.goPeak, l.goPeak)
		res.failed += len(l.failed)
		if res.firstErr == nil && len(l.failed) > 0 {
			res.firstErr = l.failed[0]
		}
		for _, b := range l.bursts {
			res.samples = append(res.samples, b.ops...)
		}
	}
	res.attempted = len(res.samples) + res.failed
	res.final = w.finish()
	res.calib[1] = calibrate()
	return res, nil
}

// warmUp runs the fixed warm-up bursts on every client at once; a failed op
// aborts the run, since nothing measured after it could be trusted.
func warmUp(w workload, bursts int) error {
	errs := make([]error, w.clients())
	var wg sync.WaitGroup
	for c := range errs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr := &tracer{}
			for i := 0; i < bursts && errs[c] == nil; i++ {
				for _, op := range w.burst(c, tr).ops {
					if op.err != nil {
						errs[c] = op.err
					}
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
