// Package loadgen emulates the paper's load generator, MoonGen: a scriptable
// traffic source that synthesizes packets at a configured rate at runtime or
// replays recorded pcap traffic, measures TX/RX throughput per second, and —
// where NIC hardware timestamping is available end to end — samples one-way
// forwarding latency. Its report format mirrors MoonGen's statistics output
// closely enough that the moonparse package plays the role of the paper's
// "parser for MoonGen's output".
//
// The generator has two emission paths. The scalar path pre-schedules one
// heap event per tick — the original engine, kept verbatim as the
// differential-test oracle. The batched path (engine in Batching mode) emits
// one packet train per tick from a sim.Ticker lane and lets the network
// deliver cut-through, which removes every per-tick heap operation and
// closure allocation; its emission schedule and per-second bucketing are
// computed so the two paths produce byte-identical results.
package loadgen

import (
	"fmt"
	"math"
	"slices"

	"pos/internal/netem"
	"pos/internal/packet"
	"pos/internal/pcap"
	"pos/internal/sim"
)

// tsNoiseSeedOffset derives the RX timestamp-noise stream from the profile
// seed. TX jitter and RX noise draw from separate streams so that emission
// scheduling can be precomputed without perturbing the per-arrival noise
// sequence.
const tsNoiseSeedOffset = 0x9E3779B97F4A7C15

// Generator is a dual-port traffic source/sink: it transmits on port TX and
// counts what returns on port RX, exactly like the case study's MoonGen host
// whose two NIC ports are wired to the DuT's two ports.
type Generator struct {
	Name string

	engine *sim.Engine
	tx     *netem.Port
	rx     *netem.Port

	// run state
	active        bool
	batched       bool
	runEnd        sim.Time
	rxPackets     int64
	rxBytes       int64
	latencies     []sim.Duration
	latencyOK     bool
	perSecondTx   []float64
	perSecondRx   []float64
	curSecTx      int64
	curSecRx      int64
	latencyCap    int
	sampleCounter int
	sampleEvery   int

	// batched-path state, all buffers reused across runs.
	emit      []int64    // per-tick emission counts, precomputed when the run starts; sorted once it ends
	rotations []sim.Time // per-second rotation instants (tick times)
	rxBuckets []int64    // RX counts per bucket, indexed by rxBucket walk
	rxBucket  int
	tickIdx   int

	frames   [][]byte
	frameIdx int
	frame    []byte // cached synthesized template frame

	// profile models the generator implementation's fidelity; noise
	// drives its burst jitter, tsNoise its software-timestamp error.
	profile Profile
	noise   *sim.Rand
	tsNoise *sim.Rand
}

// New returns a generator whose ports are named <name>.tx / <name>.rx.
// hardwareTimestamps marks the NIC as latency-measurement capable (true on
// the bare-metal testbed, false on vpos).
func New(e *sim.Engine, name string, hardwareTimestamps bool) *Generator {
	g := &Generator{Name: name, engine: e}
	g.tx = netem.NewPort(name+".tx", nil)
	g.rx = netem.NewPort(name+".rx", g)
	g.tx.HardwareTimestamps = hardwareTimestamps
	g.rx.HardwareTimestamps = hardwareTimestamps
	// The default profile is an idealized MoonGen: millisecond batching,
	// no burst jitter, timestamping as wired. NewWithProfile installs the
	// fidelity models of concrete generator implementations.
	g.profile = Profile{Name: "moongen", TickInterval: DefaultTickInterval, HardwareTimestamps: hardwareTimestamps}
	g.noise = sim.NewRand(1)
	g.tsNoise = sim.NewRand(1 + tsNoiseSeedOffset)
	return g
}

// TxPort returns the transmit port to wire to the DuT ingress.
func (g *Generator) TxPort() *netem.Port { return g.tx }

// RxPort returns the receive port to wire to the DuT egress.
func (g *Generator) RxPort() *netem.Port { return g.rx }

// RunConfig describes one measurement run.
type RunConfig struct {
	// Template is the synthetic frame prototype (ignored when Replay is
	// set).
	Template packet.UDPTemplate
	// Replay, when non-empty, replays these captured frames round-robin
	// instead of synthesizing from Template.
	Replay []pcap.Packet
	// RatePPS is the offered load in packets per second.
	RatePPS float64
	// Duration is the measurement window length.
	Duration sim.Duration
	// TickInterval is the batching granularity; 0 defaults to 1 ms.
	TickInterval sim.Duration
	// MaxLatencySamples bounds memory for latency sampling; 0 defaults
	// to 100000.
	MaxLatencySamples int
	// DrainGrace extends RX accounting past the transmit window so
	// packets still in the forwarding pipeline when the generator stops
	// are not misreported as loss (MoonGen keeps its RX counters running
	// after TX ends for the same reason). 0 defaults to 5 ms; negative
	// disables the grace entirely.
	DrainGrace sim.Duration
	// LatencySampleEvery samples one batch in N; 0 defaults to 1.
	LatencySampleEvery int
}

// DefaultTickInterval is the batch granularity of the generator.
const DefaultTickInterval = sim.Millisecond

// DefaultDrainGrace is how long RX counters keep running after the transmit
// window ends.
const DefaultDrainGrace = 5 * sim.Millisecond

// RunResult holds the outcome of one measurement run — the generator-side
// ground truth the evaluation phase consumes.
type RunResult struct {
	// FrameSize is the on-wire frame size used.
	FrameSize int
	// OfferedPPS is the configured rate.
	OfferedPPS float64
	// Duration is the configured measurement window.
	Duration sim.Duration

	// TxPackets/TxBytes were handed to the NIC; TxDropped were refused by
	// the wire (line-rate excess).
	TxPackets, TxBytes, TxDropped int64
	// RxPackets/RxBytes arrived back within the window.
	RxPackets, RxBytes int64

	// TxRatePPS and RxRatePPS are window-average rates.
	TxRatePPS, RxRatePPS float64
	// RxMbps is the RX goodput at the Ethernet layer.
	RxMbps float64
	// PerSecondTx and PerSecondRx hold per-second rate samples.
	PerSecondTx, PerSecondRx []float64

	// LatencyAvailable reports whether hardware timestamping held end to
	// end; when false, Latencies is empty (the vpos situation).
	LatencyAvailable bool
	// Latencies are sampled one-way delays.
	Latencies []sim.Duration
}

// LossRatio returns the fraction of transmitted packets that never returned.
func (r RunResult) LossRatio() float64 {
	if r.TxPackets == 0 {
		return 0
	}
	return 1 - float64(r.RxPackets)/float64(r.TxPackets)
}

// LatencyStats summarizes the latency samples (ns): average, min, max.
func (r RunResult) LatencyStats() (avg, min, max float64) {
	if len(r.Latencies) == 0 {
		return 0, 0, 0
	}
	min = math.MaxFloat64
	for _, d := range r.Latencies {
		f := float64(d)
		avg += f
		if f < min {
			min = f
		}
		if f > max {
			max = f
		}
	}
	avg /= float64(len(r.Latencies))
	return avg, min, max
}

// maxRunPackets bounds RatePPS × Duration. Below 2^53 every train size,
// counter and per-second sample is an exact integer in int64 and float64
// alike, with three orders of magnitude to spare for burst jitter; above it
// the per-tick float-to-int64 conversion overflows and the run would come
// back "successful" with nothing transmitted.
const maxRunPackets = 1 << 53

// Run executes one measurement run to completion on the generator's engine
// and returns the measured result: it validates the configuration, schedules
// the transmit activity, drives the engine to quiescence and assembles the
// statistics. The caller must not be inside an engine callback.
func (g *Generator) Run(cfg RunConfig) (RunResult, error) {
	if g.active {
		return RunResult{}, fmt.Errorf("loadgen %s: run already active", g.Name)
	}
	// The rate checks are negated comparisons so that NaN fails them too.
	if !(cfg.RatePPS > 0) {
		return RunResult{}, fmt.Errorf("loadgen %s: rate %v is not a positive number", g.Name, cfg.RatePPS)
	}
	if cfg.Duration <= 0 {
		return RunResult{}, fmt.Errorf("loadgen %s: non-positive duration %v", g.Name, cfg.Duration)
	}
	if !(cfg.RatePPS*cfg.Duration.Seconds() < maxRunPackets) {
		return RunResult{}, fmt.Errorf("loadgen %s: rate %v over %v exceeds %d packets per run", g.Name, cfg.RatePPS, cfg.Duration, int64(maxRunPackets))
	}
	tick := cfg.TickInterval
	if tick <= 0 {
		tick = g.profile.TickInterval
	}
	if tick <= 0 {
		tick = DefaultTickInterval
	}
	if tick > cfg.Duration {
		tick = cfg.Duration
	}

	g.frames = g.frames[:0]
	if len(cfg.Replay) > 0 {
		for _, p := range cfg.Replay {
			g.frames = append(g.frames, p.Data)
		}
	} else {
		data, err := cfg.Template.BuildReuse(g.frame)
		if err != nil {
			return RunResult{}, fmt.Errorf("loadgen %s: %w", g.Name, err)
		}
		g.frame = data
		g.frames = append(g.frames, data)
	}

	g.active = true
	g.batched = g.engine.Batching()
	start := g.engine.Now()
	grace := cfg.DrainGrace
	if grace == 0 {
		grace = DefaultDrainGrace
	}
	if grace < 0 {
		grace = 0
	}
	g.runEnd = start.Add(cfg.Duration + grace)
	g.rxPackets, g.rxBytes = 0, 0
	g.latencies = g.latencies[:0]
	g.latencyOK = g.tx.HardwareTimestamps && g.rx.HardwareTimestamps
	g.perSecondTx, g.perSecondRx = g.perSecondTx[:0], g.perSecondRx[:0]
	g.curSecTx, g.curSecRx = 0, 0
	g.latencyCap = cfg.MaxLatencySamples
	if g.latencyCap <= 0 {
		g.latencyCap = 100000
	}
	g.sampleEvery = cfg.LatencySampleEvery
	if g.sampleEvery <= 0 {
		g.sampleEvery = 1
	}
	g.sampleCounter = 0
	g.frameIdx = 0

	frameSize, txBefore := len(g.frames[0]), g.tx.Stats()
	if g.batched {
		g.startBatched(cfg, start, tick)
	} else {
		g.startScalar(cfg, start, tick)
	}
	err := g.engine.Run()
	g.active = false
	if err != nil {
		return RunResult{}, err
	}
	if g.batched {
		g.observeTrains()
	}
	return g.result(cfg, frameSize, txBefore), nil
}

// startScalar pre-schedules one heap event per tick — the original emission
// engine, preserved as the differential-test oracle.
func (g *Generator) startScalar(cfg RunConfig, start sim.Time, tick sim.Duration) {
	// Schedule transmit ticks with fractional-packet carry so any rate is
	// hit exactly on average.
	var carry float64
	perTickExact := cfg.RatePPS * tick.Seconds()
	var secMark sim.Time = start.Add(sim.Second)
	for at := sim.Duration(0); at < cfg.Duration; at += tick {
		g.engine.At(start.Add(at), func(now sim.Time) {
			emit := perTickExact
			if g.profile.BurstJitter > 0 {
				// Kernel scheduling makes sockets-based
				// generators bursty: per-tick emission varies,
				// long-run rate is preserved by the carry.
				f := 1 + g.profile.BurstJitter*g.noise.NormFloat64()
				if f < 0 {
					f = 0
				}
				emit *= f
			}
			carry += emit
			n := int64(carry)
			carry -= float64(n)
			if n == 0 {
				return
			}
			for now >= secMark {
				g.rotateSecond()
				secMark = secMark.Add(sim.Second)
			}
			frame := g.frames[g.frameIdx]
			g.frameIdx = (g.frameIdx + 1) % len(g.frames)
			g.tx.Send(now, netem.Batch{
				Data:        frame,
				FrameSize:   len(frame),
				Count:       n,
				Timestamped: true,
			})
			g.curSecTx += n
		})
	}
}

// startBatched precomputes the whole emission schedule — per-tick train
// sizes, per-second TX buckets and the rotation instants that delimit RX
// buckets — and registers a single ticker lane to emit it. The arithmetic is
// tick-for-tick the scalar handler's, so the schedule (and with it every
// derived statistic) is identical; only the heap events disappear.
func (g *Generator) startBatched(cfg RunConfig, start sim.Time, tick sim.Duration) {
	g.emit = g.emit[:0]
	g.rotations = g.rotations[:0]
	var carry float64
	var curSecTx int64
	perTickExact := cfg.RatePPS * tick.Seconds()
	secMark := start.Add(sim.Second)
	nTicks := 0
	for at := sim.Duration(0); at < cfg.Duration; at += tick {
		now := start.Add(at)
		nTicks++
		emit := perTickExact
		if g.profile.BurstJitter > 0 {
			f := 1 + g.profile.BurstJitter*g.noise.NormFloat64()
			if f < 0 {
				f = 0
			}
			emit *= f
		}
		carry += emit
		n := int64(carry)
		carry -= float64(n)
		g.emit = append(g.emit, n)
		if n == 0 {
			continue
		}
		// The scalar handler rotates lazily: buckets close at the first
		// emitting tick past the boundary, and an RX batch delivered at
		// exactly that instant lands in the new bucket because the tick
		// event carries a lower sequence number. Recording the instant
		// (repeated when one tick closes several empty seconds) lets
		// HandleBatch reproduce that assignment from timestamps alone.
		for now >= secMark {
			g.perSecondTx = append(g.perSecondTx, float64(curSecTx))
			g.rotations = append(g.rotations, now)
			curSecTx = 0
			secMark = secMark.Add(sim.Second)
		}
		curSecTx += n
	}
	g.curSecTx = curSecTx
	g.rxBuckets = g.rxBuckets[:0]
	for i := 0; i <= len(g.rotations); i++ {
		g.rxBuckets = append(g.rxBuckets, 0)
	}
	g.rxBucket = 0
	g.tickIdx = 0
	g.engine.Ticks(start, tick, nTicks, g.batchedTick)
}

// observeTrains flushes a finished batched run's train telemetry: one
// ObserveN per distinct train size, in ascending order, and the train count.
// A single pass per run replaces three atomics per tick in the emission hot
// path. It sorts the spent schedule in place, so it allocates nothing; the
// next startBatched rebuilds g.emit.
func (g *Generator) observeTrains() {
	sizes := g.emit
	slices.Sort(sizes)
	trains := 0
	for i := 0; i < len(sizes); {
		j := i + 1
		for j < len(sizes) && sizes[j] == sizes[i] {
			j++
		}
		if sizes[i] > 0 {
			trainPackets.ObserveN(float64(sizes[i]), uint64(j-i))
			trains += j - i
		}
		i = j
	}
	trainsTotal.Add(float64(trains))
}

// batchedTick emits one precomputed packet train. No RNG, no heap events,
// no allocations: the hot path is a slice read and a cut-through Send.
func (g *Generator) batchedTick(now sim.Time) {
	n := g.emit[g.tickIdx]
	g.tickIdx++
	if n == 0 {
		return
	}
	frame := g.frames[g.frameIdx]
	if g.frameIdx++; g.frameIdx == len(g.frames) {
		g.frameIdx = 0
	}
	g.tx.Send(now, netem.Batch{
		Data:        frame,
		FrameSize:   len(frame),
		Count:       n,
		Timestamped: true,
	})
}

// result assembles the statistics of the run that just drained: the engine
// went quiescent, so every scheduled tick fired and every delivery landed.
func (g *Generator) result(cfg RunConfig, frameSize int, txBefore netem.Counters) RunResult {
	var perSecTx, perSecRx []float64
	if g.batched {
		perSecTx = append([]float64(nil), g.perSecondTx...)
		perSecTx = append(perSecTx, float64(g.curSecTx))
		perSecRx = make([]float64, len(g.rxBuckets))
		for i, n := range g.rxBuckets {
			perSecRx[i] = float64(n)
		}
	} else {
		g.rotateSecond()
		perSecTx = append([]float64(nil), g.perSecondTx...)
		perSecRx = append([]float64(nil), g.perSecondRx...)
	}

	txAfter := g.tx.Stats()
	res := RunResult{
		FrameSize:        frameSize,
		OfferedPPS:       cfg.RatePPS,
		Duration:         cfg.Duration,
		TxPackets:        txAfter.TxPackets - txBefore.TxPackets,
		TxBytes:          txAfter.TxBytes - txBefore.TxBytes,
		TxDropped:        txAfter.TxDropped - txBefore.TxDropped,
		RxPackets:        g.rxPackets,
		RxBytes:          g.rxBytes,
		PerSecondTx:      perSecTx,
		PerSecondRx:      perSecRx,
		LatencyAvailable: len(g.latencies) > 0,
		Latencies:        append([]sim.Duration(nil), g.latencies...),
	}
	secs := cfg.Duration.Seconds()
	res.TxRatePPS = float64(res.TxPackets) / secs
	res.RxRatePPS = float64(res.RxPackets) / secs
	res.RxMbps = float64(res.RxBytes) * 8 / secs / 1e6
	if !res.LatencyAvailable {
		res.Latencies = nil
	}
	return res
}

func (g *Generator) rotateSecond() {
	g.perSecondTx = append(g.perSecondTx, float64(g.curSecTx))
	g.perSecondRx = append(g.perSecondRx, float64(g.curSecRx))
	g.curSecTx, g.curSecRx = 0, 0
}

// HandleBatch implements netem.Device for the RX port.
func (g *Generator) HandleBatch(now sim.Time, in netem.Batch, rx *netem.Port) {
	if !g.active || now > g.runEnd {
		return
	}
	g.rxPackets += in.Count
	g.rxBytes += in.Bytes()
	if g.batched {
		// Timestamp-based bucketing: cut-through deliveries arrive in
		// timestamp order per flow, so a monotone walk over the
		// precomputed rotation instants reproduces the scalar engine's
		// event-ordered bucket assignment (ties go to the new bucket,
		// as the rotating tick fires first in the scalar engine).
		for g.rxBucket < len(g.rotations) && now >= g.rotations[g.rxBucket] {
			g.rxBucket++
		}
		g.rxBuckets[g.rxBucket] += in.Count
	} else {
		g.curSecRx += in.Count
	}
	if !in.Timestamped {
		// A hop without hardware timestamps breaks hardware latency
		// measurement for the whole run — the paper's vpos limitation.
		g.latencyOK = false
	}
	hwSample := g.latencyOK && in.Timestamped
	swSample := !hwSample && g.profile.SoftwareTimestamps
	if !hwSample && !swSample {
		return
	}
	g.sampleCounter++
	if g.sampleCounter%g.sampleEvery != 0 || len(g.latencies) >= g.latencyCap {
		return
	}
	d := in.Delay
	if swSample {
		// Host-clock timestamping: the true delay plus scheduling and
		// clock-read noise, never negative. Drawn from a stream
		// separate from the TX jitter so arrival-order noise is
		// independent of how emission was scheduled.
		d += sim.Duration(float64(g.profile.TimestampNoise) * g.tsNoise.NormFloat64())
		if d < 0 {
			d = 0
		}
	}
	g.latencies = append(g.latencies, d)
}
