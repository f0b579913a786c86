package main

import (
	"slices"
	"sort"
	"time"
)

// metric is one named, unit-carrying number of a run.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Value  float64 `json:"value"`
	// N is the sample count behind a percentile (0 for totals and ratios).
	N int `json:"n,omitempty"`
	// Missing marks a layer metric whose telemetry series or span no longer
	// exists in the program: reported, never an error.
	Missing bool `json:"missing,omitempty"`
}

// endToEndDefs are the ten metrics a user of the system sees, identical on
// every workload. BENCHMARK.json carries their bounds.
var endToEndDefs = []struct{ name, unit, better string }{
	{"setup_s", "s", "lower"},
	{"op_ms_p50", "ms", "lower"},
	{"op_ms_p50_late", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"step2_ms_p50", "ms", "lower"},
	{"step3_ms_p50", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"allocs_per_op", "1", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

func durationsMS(ops []opResult, pick func(opResult) time.Duration) []float64 {
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = ms(pick(op))
	}
	sort.Float64s(out)
	return out
}

// timeSlice is what completed between two marks of the timed window: whole
// bursts, per client the time they took with housekeeping subtracted, and
// the process CPU time spent.
type timeSlice struct {
	end   time.Duration
	ops   []opResult
	busy  []time.Duration
	count []int
	cpu   time.Duration
	p50   float64 // median op time, ms: what the slices are ranked by
}

func (r *runResult) cut() []timeSlice {
	var out []timeSlice
	for i := 1; i < len(r.marks); i++ {
		lo, hi := r.marks[i-1], r.marks[i]
		s := timeSlice{end: hi.at, cpu: hi.cpu - lo.cpu,
			busy: make([]time.Duration, r.w.clients()), count: make([]int, r.w.clients())}
		for _, b := range r.bursts {
			if b.at > lo.at && b.at <= hi.at {
				s.ops = append(s.ops, b.ops...)
				s.busy[b.client] += b.busy
				s.count[b.client] += len(b.ops)
			}
		}
		if len(s.ops) > 0 {
			s.p50 = quantile(durationsMS(s.ops, func(o opResult) time.Duration { return o.total }), 0.5)
			out = append(out, s)
		}
	}
	return out
}

// sliceStats is the timing metrics of one slice, or of several pooled.
type sliceStats struct {
	EndS     float64    `json:"end_s,omitempty"`
	Ops      int        `json:"ops"`
	OpP50    float64    `json:"op_ms_p50"`
	StepP50  [3]float64 `json:"step_ms_p50"`
	OpsPerS  float64    `json:"ops_per_s"`
	CPUPerOp float64    `json:"cpu_ms_per_op"`
}

// measure pools the slices: medians over all their ops, throughput per client
// (completed ops over the time their bursts took) summed over the clients,
// CPU time over ops. Every value comes from the same ops, so the step
// medians account for the op median.
func measure(parts []timeSlice) sliceStats {
	var ops []opResult
	var busy []time.Duration
	var count []int
	var cpu time.Duration
	for _, p := range parts {
		ops = append(ops, p.ops...)
		cpu += p.cpu
		if busy == nil {
			busy, count = make([]time.Duration, len(p.busy)), make([]int, len(p.count))
		}
		for c := range p.busy {
			busy[c] += p.busy[c]
			count[c] += p.count[c]
		}
	}
	if len(ops) == 0 {
		return sliceStats{}
	}
	s := sliceStats{
		Ops:      len(ops),
		OpP50:    quantile(durationsMS(ops, func(o opResult) time.Duration { return o.total }), 0.5),
		CPUPerOp: ms(cpu) / float64(len(ops)),
	}
	for k := range s.StepP50 {
		s.StepP50[k] = quantile(durationsMS(ops, func(o opResult) time.Duration { return o.steps[k] }), 0.5)
	}
	for c, n := range count {
		if busy[c] > 0 {
			s.OpsPerS += float64(n) / busy[c].Seconds()
		}
	}
	return s
}

// slices is the timed window slice by slice, for the run record.
func (r *runResult) slices() []sliceStats {
	var out []sliceStats
	for _, p := range r.cut() {
		s := measure([]timeSlice{p})
		s.EndS = p.end.Seconds()
		out = append(out, s)
	}
	return out
}

// quietShare: the timing metrics pool the quietest fifth of the slices.
const quietShare = 5

// quiet is the program's speed on a quiet host: the slices ranked by their op
// median, the quietest fifth pooled and measured as one. See sliceLen.
func quiet(parts []timeSlice) sliceStats {
	ranked := slices.Clone(parts)
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].p50 < ranked[j].p50 })
	return measure(ranked[:min(len(ranked), max(1, len(ranked)/quietShare))])
}

// lateHalf is the slices of the window's second half: a program that slows
// as its state grows (queue_tenants' journal, store and controller state grow
// for the whole run) shows there, where the quietest slices of the whole
// window are its earliest.
func lateHalf(parts []timeSlice) []timeSlice {
	return parts[len(parts)/2:]
}

func (r *runResult) endToEnd() []metric {
	ops := float64(max(len(r.samples), 1))
	parts := r.cut()
	q, late := quiet(parts), quiet(lateHalf(parts))
	out := make([]metric, len(endToEndDefs))
	for i, d := range endToEndDefs {
		m := metric{Name: d.name, Unit: d.unit, Better: d.better}
		switch d.name {
		case "setup_s":
			m.Value, m.N = median(r.setups), len(r.setups)
		case "op_ms_p50":
			m.Value, m.N = q.OpP50, q.Ops
		case "op_ms_p50_late":
			m.Value, m.N = late.OpP50, late.Ops
		case "step2_ms_p50", "step3_ms_p50":
			m.Value, m.N = q.StepP50[d.name[4]-'1'], q.Ops
		case "ops_per_s":
			m.Value = q.OpsPerS
		case "cpu_ms_per_op":
			m.Value = q.CPUPerOp
		case "alloc_mb_per_op":
			m.Value = float64(r.mem1.TotalAlloc-r.mem0.TotalAlloc) / 1e6 / ops
		case "allocs_per_op":
			m.Value = float64(r.mem1.Mallocs-r.mem0.Mallocs) / ops
		case "peak_rss_mb":
			m.Value = peakRSSMB()
		}
		out[i] = m
	}
	return out
}

// analysis answers the per-layer questions of one traced run.
type analysis struct {
	r   *runResult
	ops float64
	// totals: the timed ops' wall times (ms), sorted.
	totals []float64
	// byName: span durations (ms) by name; perOp: the same summed per op.
	byName map[string][]float64
	perOp  map[string]map[[2]int]float64
}

func analyse(r *runResult) *analysis {
	a := &analysis{r: r, ops: float64(max(len(r.samples), 1)),
		totals: durationsMS(r.samples, func(o opResult) time.Duration { return o.total }),
		byName: map[string][]float64{}, perOp: map[string]map[[2]int]float64{}}
	for _, spans := range r.spans {
		for _, s := range spans {
			d := float64(s.End-s.Start) / 1e6
			a.byName[s.Name] = append(a.byName[s.Name], d)
			if a.perOp[s.Name] == nil {
				a.perOp[s.Name] = map[[2]int]float64{}
			}
			a.perOp[s.Name][[2]int{s.Client, s.Op}] += d
		}
	}
	return a
}

// spanOp is the median over traced ops of the time inside spans of a name.
func (a *analysis) spanOp(name string) (float64, bool) {
	m, ok := a.perOp[name]
	if !ok {
		return 0, false
	}
	xs := make([]float64, 0, len(m))
	for _, v := range m {
		xs = append(xs, v)
	}
	return median(xs), true
}

// spanEach is the median duration of the individual spans of a name.
func (a *analysis) spanEach(name string) (float64, bool) {
	xs, ok := a.byName[name]
	return median(xs), ok
}

// opValue is the median over the timed ops of a value the ops collected.
func (a *analysis) opValue(key string) (float64, bool) {
	var xs []float64
	for _, op := range a.r.samples {
		if v, ok := op.layer[key]; ok {
			xs = append(xs, v)
		}
	}
	return median(xs), len(xs) > 0
}

// counter is a telemetry series' growth over the window per op.
func (a *analysis) counter(name string, field string, labels ...string) (float64, bool) {
	match := map[string]string{}
	for i := 0; i+1 < len(labels); i += 2 {
		match[labels[i]] = labels[i+1]
	}
	v, ok := a.r.tele.of(name, match, field)
	return v / a.ops, ok
}

// share is part ÷ (part + rest) over the window, 0 when nothing happened.
func (a *analysis) share(part, rest string) (float64, bool) {
	p, ok1 := a.r.tele.of(part, nil, "")
	q, ok2 := a.r.tele.of(rest, nil, "")
	if !ok1 || !ok2 {
		return 0, false
	}
	if p+q == 0 {
		return 0, true
	}
	return p / (p + q), true
}

// nsPerPacket is a data-plane step's host time over its simulated packets.
func (a *analysis) nsPerPacket(step int, key string) (float64, bool) {
	var host, pkts float64
	for _, op := range a.r.samples {
		if p, ok := op.layer[key]; ok {
			host += float64(op.steps[step])
			pkts += p
		}
	}
	if pkts == 0 {
		return 0, false
	}
	return host / pkts, true
}

// traceOverhead is the paired comparison inside a traced run: median op
// time of the traced bursts over that of the untraced ones between them.
func (a *analysis) traceOverhead() (float64, bool) {
	var on, off []float64
	for _, b := range a.r.bursts {
		for _, op := range b.ops {
			if b.traced {
				on = append(on, ms(op.total))
			} else {
				off = append(off, ms(op.total))
			}
		}
	}
	if len(on) == 0 || len(off) == 0 {
		return 0, false
	}
	return median(on) / median(off), true
}

// coverRatio is the share of the traced ops' wall time that lies inside the
// recorded layer calls: what is left is harness glue, so the layer numbers
// account for the end-to-end ones when it is 1 ± 0.05.
func (a *analysis) coverRatio() (float64, bool) {
	stepNames := map[string]bool{"op": true}
	for _, s := range a.r.w.steps() {
		stepNames[s] = true
	}
	var covered, wall float64
	for _, spans := range a.r.spans {
		var ops, calls [][2]int64
		for _, s := range spans {
			switch {
			case s.Name == "op":
				ops = append(ops, [2]int64{s.Start, s.End})
			case !stepNames[s.Name]:
				calls = append(calls, [2]int64{s.Start, s.End})
			}
		}
		opUnion := union(ops)
		wall += length(opUnion)
		covered += length(intersect(union(calls), opUnion))
	}
	if wall == 0 {
		return 0, false
	}
	return covered / wall, true
}

func union(iv [][2]int64) [][2]int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var out [][2]int64
	for _, x := range iv {
		if n := len(out); n > 0 && x[0] <= out[n-1][1] {
			out[n-1][1] = max(out[n-1][1], x[1])
			continue
		}
		out = append(out, x)
	}
	return out
}

// intersect of two sorted, disjoint interval lists.
func intersect(a, b [][2]int64) [][2]int64 {
	var out [][2]int64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		lo, hi := max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
		if lo < hi {
			out = append(out, [2]int64{lo, hi})
		}
		if a[i][1] < b[j][1] {
			i++
		} else {
			j++
		}
	}
	return out
}

func length(iv [][2]int64) float64 {
	n := int64(0)
	for _, x := range iv {
		n += x[1] - x[0]
	}
	return float64(n)
}

type layerDef struct {
	name, unit, better string
	// on lists the workloads that exercise the layer (nil: all of them);
	// elsewhere the metric reads 0.
	on    []string
	value func(a *analysis) (float64, bool)
}

const (
	wAppendix  = "appendix_campaign"
	wQueue     = "queue_tenants"
	wDataplane = "dataplane_sweep"
	wStore     = "store_eval_publish"
)

var wAll []string

func on(workloads ...string) []string { return workloads }

func spanOp(name string) func(*analysis) (float64, bool) {
	return func(a *analysis) (float64, bool) { return a.spanOp(name) }
}

func opValue(key string) func(*analysis) (float64, bool) {
	return func(a *analysis) (float64, bool) { return a.opValue(key) }
}

func counter(name string, labels ...string) func(*analysis) (float64, bool) {
	return func(a *analysis) (float64, bool) { return a.counter(name, "", labels...) }
}

func scaled(f func(*analysis) (float64, bool), k float64) func(*analysis) (float64, bool) {
	return func(a *analysis) (float64, bool) { v, ok := f(a); return v * k, ok }
}

func histSum(name string, labels ...string) func(*analysis) (float64, bool) {
	return func(a *analysis) (float64, bool) { return a.counter(name, "sum", labels...) }
}

func share(part, rest string) func(*analysis) (float64, bool) {
	return func(a *analysis) (float64, bool) { return a.share(part, rest) }
}

// ratio is one counter's growth over another's, 0 when the second stood still.
func ratio(num, den string) func(*analysis) (float64, bool) {
	return func(a *analysis) (float64, bool) {
		n, ok1 := a.r.tele.of(num, nil, "")
		d, ok2 := a.r.tele.of(den, nil, "")
		if !ok1 || !ok2 {
			return 0, false
		}
		if d == 0 {
			return 0, true
		}
		return n / d, true
	}
}

func final(key string) func(*analysis) (float64, bool) {
	return func(a *analysis) (float64, bool) { v, ok := a.r.final[key]; return v, ok }
}

// layerDefs are the per-layer metrics, named <layer>.<metric>. README.md
// maps each to the end-to-end metric and workload it should move.
var layerDefs = []layerDef{
	// harness: diagnostics of the measurement itself
	{"harness.op_ms_p90", "ms", "lower", wAll, func(a *analysis) (float64, bool) { return quantile(a.totals, 0.9), true }},
	{"harness.op_ms_max", "ms", "lower", wAll, func(a *analysis) (float64, bool) { return quantile(a.totals, 1), true }},
	{"harness.trace_overhead_x", "x", "lower", wAll, (*analysis).traceOverhead},
	{"harness.cover_ratio", "ratio", "higher", wAll, (*analysis).coverRatio},
	{"harness.calib_ms", "ms", "lower", wAll, func(a *analysis) (float64, bool) {
		return (a.r.calib[0] + a.r.calib[1]) / 2, true
	}},
	{"harness.op_ms_p50_window", "ms", "lower", wAll, func(a *analysis) (float64, bool) { return quantile(a.totals, 0.5), true }},
	{"harness.quiet_x", "x", "lower", wAll, func(a *analysis) (float64, bool) {
		q := quiet(a.r.cut()).OpP50
		return quantile(a.totals, 0.5) / q, q > 0
	}},
	// step1 is sub-millisecond on two workloads (0.6 ms build, 0.15 ms POST):
	// two runs of the same code differ by 12 % there, so it is not gated.
	{"step1_ms_p50", "ms", "lower", wAll, func(a *analysis) (float64, bool) { return quiet(a.r.cut()).StepP50[0], true }},

	// casestudy / testbed
	{"casestudy.build_ms", "ms", "lower", on(wAppendix, wQueue), func(a *analysis) (float64, bool) {
		if v, ok := a.opValue("casestudy.build_ms"); ok {
			return v, true
		}
		return a.spanOp("casestudy.New")
	}},
	{"casestudy.close_ms", "ms", "lower", on(wAppendix, wQueue), func(a *analysis) (float64, bool) {
		if v, ok := a.opValue("casestudy.close_ms"); ok {
			return v, true
		}
		return a.spanOp("casestudy.Close")
	}},

	// core / hosttools
	{"core.run_ms", "ms", "lower", on(wAppendix), spanOp("core.Runner.Run")},
	{"core.phase_ms.boot", "ms", "lower", on(wAppendix), scaled(histSum("pos_runner_phase_seconds", "phase", "boot"), 1e3)},
	{"core.phase_ms.setup", "ms", "lower", on(wAppendix), scaled(histSum("pos_runner_phase_seconds", "phase", "setup"), 1e3)},
	{"core.phase_ms.measurement", "ms", "lower", on(wAppendix), scaled(histSum("pos_runner_phase_seconds", "phase", "measurement"), 1e3)},
	{"hosttools.barrier_wait_ms_per_op", "ms", "lower", on(wAppendix), scaled(histSum("pos_hosttools_barrier_wait_seconds"), 1e3)},
	{"hosttools.uploads_per_op", "1", "lower", on(wAppendix), counter("pos_hosttools_uploads_total")},
	{"hosttools.upload_kb_per_op", "KB", "lower", on(wAppendix), scaled(counter("pos_hosttools_upload_bytes_total"), 1e-3)},

	// timeline: the accounting of the campaign's run step
	{"timeline.assemble_ms", "ms", "lower", on(wAppendix), spanOp("timeline.Assemble")},
	{"timeline.phase_ms.boot", "ms", "lower", on(wAppendix), opValue("timeline.phase_ms.boot")},
	{"timeline.phase_ms.setup", "ms", "lower", on(wAppendix), opValue("timeline.phase_ms.setup")},
	{"timeline.phase_ms.measurement", "ms", "lower", on(wAppendix), opValue("timeline.phase_ms.measurement")},
	{"timeline.phase_ms.other", "ms", "lower", on(wAppendix), opValue("timeline.phase_ms.other")},
	{"timeline.cover_ratio", "ratio", "higher", on(wAppendix), func(a *analysis) (float64, bool) {
		var phases, wall float64
		for _, op := range a.r.samples {
			for k, v := range op.layer {
				if k == "timeline.wall_ms" {
					wall += v
				} else {
					phases += v
				}
			}
		}
		if wall == 0 {
			return 0, false
		}
		return phases / wall, true
	}},

	// api
	{"api.submit_ms_p50", "ms", "lower", on(wQueue), func(a *analysis) (float64, bool) { return a.spanEach("api.SubmitCampaign") }},
	{"api.poll_ms_p50", "ms", "lower", on(wQueue), func(a *analysis) (float64, bool) { return a.spanEach("api.Campaign") }},
	{"api.polls_per_op", "1", "lower", on(wQueue), opValue("api.polls")},
	{"api.requests_per_op", "1", "lower", on(wQueue), counter("pos_api_requests_total")},

	// queue / calendar
	{"queue.wait_ms_p50", "ms", "lower", on(wQueue), opValue("queue.wait_ms")},
	{"queue.journal_bytes_per_op", "B", "lower", on(wQueue), final("queue.journal_bytes_per_op")},
	{"queue.admissions_per_op", "1", "lower", on(wQueue), counter("pos_queue_admissions_total")},
	{"queue.starved_passes_per_op", "1", "lower", on(wQueue), counter("pos_queue_starved_passes_total")},
	{"queue.replay_ms", "ms", "lower", on(wQueue), final("queue.replay_ms")},

	// sched / workpool / eventlog
	{"sched.campaign_ms_p50", "ms", "lower", on(wQueue), opValue("sched.campaign_ms")},
	{"sched.dispatches_per_op", "1", "lower", on(wQueue), counter("pos_sched_dispatches_total")},
	{"sched.retries_per_op", "1", "lower", on(wQueue), counter("pos_sched_retries_total")},
	{"workpool.tasks_per_op", "1", "lower", on(wQueue, wDataplane), counter("pos_workpool_tasks_total")},
	{"workpool.steals_per_op", "1", "lower", on(wQueue, wDataplane), counter("pos_workpool_steals_total")},
	{"workpool.inline_ratio", "ratio", "higher", on(wQueue, wDataplane), ratio("pos_workpool_inline_total", "pos_workpool_tasks_total")},
	{"events.published_per_op", "1", "lower", on(wQueue, wAppendix), counter("pos_events_published_total")},
	{"events.dropped_per_op", "1", "lower", on(wQueue, wAppendix), counter("pos_events_dropped_total")},

	// sim / loadgen / netem / router
	{"sim.single_ns_per_pkt", "ns", "lower", on(wDataplane), func(a *analysis) (float64, bool) { return a.nsPerPacket(0, "single_pkts") }},
	{"sim.chain_ns_per_pkt", "ns", "lower", on(wDataplane), func(a *analysis) (float64, bool) { return a.nsPerPacket(1, "chain_pkts") }},
	{"sim.virtual_ns_per_pkt", "ns", "lower", on(wDataplane), func(a *analysis) (float64, bool) { return a.nsPerPacket(2, "virtual_pkts") }},
	{"sim.event_pool_miss_ratio", "ratio", "lower", on(wDataplane, wAppendix), share("pos_sim_event_pool_misses_total", "pos_sim_event_pool_hits_total")},
	{"netem.delivery_pool_miss_ratio", "ratio", "lower", on(wDataplane, wAppendix), ratio("pos_netem_delivery_pool_misses_total", "pos_netem_delivery_pool_gets_total")},
	{"loadgen.trains_per_op", "1", "lower", on(wDataplane, wAppendix), counter("pos_loadgen_trains_total")},

	// partition / shard synchronizer
	{"sim.shard_windows_per_op", "1", "lower", on(wDataplane), counter("pos_sim_shard_windows_total")},
	{"sim.shard_stall_ratio", "ratio", "lower", on(wDataplane), ratio("pos_sim_shard_stall_windows_total", "pos_sim_shard_windows_total")},
	{"sim.shard_adaptive_rounds_per_op", "1", "lower", on(wDataplane), counter("pos_sim_shard_adaptive_rounds_total")},
	{"sim.cross_injections_per_op", "1", "lower", on(wDataplane), counter("pos_sim_shard_cross_injections_total")},
	{"sim.late_injections_per_op", "1", "lower", on(wDataplane), counter("pos_sim_shard_late_injections_total")},
	{"netem.cross_trains_per_op", "1", "lower", on(wDataplane), counter("pos_netem_cross_trains_total")},

	// results
	{"results.ingest_ms", "ms", "lower", on(wStore), spanOp("results.ingest")},
	{"results.sync_ms", "ms", "lower", on(wStore), spanOp("results.Sync")},
	{"results.enumerate_ms", "ms", "lower", on(wAppendix), spanOp("results.enumerate")},
	{"results.manifest_flushes_per_op", "1", "lower", on(wStore, wAppendix, wQueue), counter("pos_results_manifest_flushes_total")},
	{"results.dedup_hit_ratio", "ratio", "higher", on(wStore, wAppendix), share("pos_results_dedup_hits_total", "pos_results_dedup_misses_total")},
	{"results.dedup_saved_mb_per_op", "MB", "higher", on(wStore, wAppendix), scaled(counter("pos_results_dedup_saved_bytes_total"), 1e-6)},
	{"results.files_per_op", "1", "lower", on(wStore), opValue("files")},

	// eval / moonparse / plot
	{"eval.cold_ms", "ms", "lower", on(wStore), spanOp("eval.cold")},
	{"eval.warm_ms", "ms", "lower", on(wStore), spanOp("eval.warm")},
	{"eval.cache_hit_ratio", "ratio", "higher", on(wStore), share("pos_eval_cache_hits_total", "pos_eval_cache_misses_total")},
	{"eval.us_per_log", "us", "lower", on(wStore), scaled(spanOp("eval.cold"), 1e3/storeRuns)},
	{"plot.export_ms", "ms", "lower", on(wStore), spanOp("plot.Export")},

	// publish
	{"publish.check_ms", "ms", "lower", on(wStore), spanOp("publish.Check")},
	{"publish.release_ms", "ms", "lower", on(wStore), spanOp("publish.Release")},
	{"publish.archive_mb", "MB", "lower", on(wStore), opValue("archive_mb")},
	{"publish.mb_per_s", "MB/s", "higher", on(wStore), func(a *analysis) (float64, bool) {
		mb, ok1 := a.opValue("archive_mb")
		rel, ok2 := a.spanOp("publish.Release")
		if !ok1 || !ok2 || rel == 0 {
			return 0, false
		}
		return mb / (rel / 1e3), true
	}},

	// runtime: moves cpu_ms_per_op and alloc_mb_per_op on every workload
	{"runtime.gc_cycles_per_op", "1", "lower", wAll, func(a *analysis) (float64, bool) {
		return float64(a.r.mem1.NumGC-a.r.mem0.NumGC) / a.ops, true
	}},
	{"runtime.gc_pause_ms_per_op", "ms", "lower", wAll, func(a *analysis) (float64, bool) {
		return float64(a.r.mem1.PauseTotalNs-a.r.mem0.PauseTotalNs) / 1e6 / a.ops, true
	}},
	{"runtime.goroutines_peak", "1", "lower", wAll, func(a *analysis) (float64, bool) {
		return float64(a.r.goPeak), true
	}},
}

func (r *runResult) perLayer() []metric {
	a := analyse(r)
	out := make([]metric, len(layerDefs))
	for i, d := range layerDefs {
		out[i] = metric{Name: d.name, Unit: d.unit, Better: d.better}
		if d.on != nil && !slices.Contains(d.on, r.cfg.Workload) {
			continue
		}
		v, ok := d.value(a)
		out[i].Value, out[i].Missing = v, !ok
	}
	return out
}
