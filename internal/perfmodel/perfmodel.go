// Package perfmodel provides the packet-processing capacity models that turn
// the emulated Linux router into a stand-in for the paper's two devices under
// test: the bare-metal server (pos) and its virtual clone (vpos).
//
// Both models express forwarding capacity as a CPU budget divided by a
// per-packet cost, cost = PerPacketCycles + PerByteCycles·size. The
// parameters are calibrated against the published case study (Fig. 3):
//
//   - Bare metal: ≈1.75 Mpps regardless of packet size (the Intel 82599's
//     10 Gbit/s line rate, modelled by netem, caps 1500 B frames at
//     ≈0.81 Mpps before the CPU limit is reached).
//   - Virtualized: drop-free only up to ≈0.04 Mpps; above that, capacity
//     fluctuates interval-to-interval (vhost/bridge scheduling noise) and
//     develops a packet-size dependence through the per-byte copy cost —
//     exactly the instability visible in Fig. 3b.
//
// The ≈44× bare-metal/VM gap the paper reports falls out of these numbers.
package perfmodel

import (
	"fmt"

	"pos/internal/sim"
)

// Model yields a forwarding capacity, possibly redrawn per measurement
// interval to model run-to-run variance.
type Model interface {
	// CapacityPPS returns the packets-per-second the device can forward
	// for the given frame size during the interval starting at now.
	CapacityPPS(now sim.Time, frameSize int) float64
	// Latency returns the deterministic per-packet processing latency at
	// the given utilization (0..1+); queueing on top of it is modelled by
	// netem.
	Latency(utilization float64) sim.Duration
	// SampleLatency returns one latency observation: Latency plus the
	// model's scheduling jitter. Repeated calls draw fresh noise.
	SampleLatency(utilization float64) sim.Duration
	// Name identifies the model in metadata and result files.
	Name() string
}

// CycleModel is the shared cost-based implementation.
type CycleModel struct {
	// ModelName appears in experiment metadata ("baremetal", "vm").
	ModelName string
	// BudgetCyclesPerSec is the CPU budget available for forwarding.
	BudgetCyclesPerSec float64
	// PerPacketCycles is the fixed per-packet cost.
	PerPacketCycles float64
	// PerByteCycles is the size-dependent cost (copies, bridge hops).
	PerByteCycles float64
	// BaseLatency is the unloaded forwarding latency.
	BaseLatency sim.Duration
	// LatencyJitterStd is the standard deviation of per-packet scheduling
	// noise added by SampleLatency (interrupt moderation, softirq
	// batching, cache effects). Zero disables jitter.
	LatencyJitterStd sim.Duration
	// JitterLow/JitterHigh bound the multiplicative capacity jitter that
	// is redrawn every JitterInterval. Equal values disable jitter.
	JitterLow, JitterHigh float64
	// JitterInterval is the redraw period (0 disables jitter).
	JitterInterval sim.Duration

	rng         *sim.Rand
	lastDraw    sim.Time
	currentMult float64
	drawn       bool

	// nomPPS caches nominalPPS for nomFrameSize: within a measurement run
	// every batch has one frame size, and the cycle parameters are fixed at
	// construction, so the per-batch hot path skips the float division.
	nomPPS       float64
	nomFrameSize int
	nomValid     bool
}

// Name implements Model.
func (m *CycleModel) Name() string { return m.ModelName }

// Seed (re)initializes the jitter source; models with jitter must be seeded
// before use so results stay reproducible for a given seed.
func (m *CycleModel) Seed(seed uint64) {
	m.rng = sim.NewRand(seed)
	m.drawn = false
}

// nominalPPS is the capacity before jitter.
func (m *CycleModel) nominalPPS(frameSize int) float64 {
	if m.nomValid && frameSize == m.nomFrameSize {
		return m.nomPPS
	}
	cost := m.PerPacketCycles + m.PerByteCycles*float64(frameSize)
	pps := 0.0
	if cost > 0 {
		pps = m.BudgetCyclesPerSec / cost
	}
	m.nomPPS, m.nomFrameSize, m.nomValid = pps, frameSize, true
	return pps
}

// CapacityPPS implements Model.
func (m *CycleModel) CapacityPPS(now sim.Time, frameSize int) float64 {
	pps := m.nominalPPS(frameSize)
	if m.JitterInterval <= 0 || m.JitterHigh <= m.JitterLow {
		return pps
	}
	if m.rng == nil {
		panic(fmt.Sprintf("perfmodel: %s used with jitter but not seeded", m.ModelName))
	}
	if !m.drawn || now.Sub(m.lastDraw) >= m.JitterInterval {
		m.currentMult = m.JitterLow + m.rng.Float64()*(m.JitterHigh-m.JitterLow)
		m.lastDraw = now
		m.drawn = true
	}
	return pps * m.currentMult
}

// Latency implements Model: processing latency grows with utilization,
// approximating the service-time inflation of a busy softirq path.
func (m *CycleModel) Latency(utilization float64) sim.Duration {
	if utilization < 0 {
		utilization = 0
	}
	if utilization > 4 {
		utilization = 4
	}
	return m.BaseLatency + sim.Duration(float64(m.BaseLatency)*utilization)
}

// SampleLatency implements Model: the deterministic latency plus truncated
// Gaussian scheduling noise, never less than half the deterministic value.
func (m *CycleModel) SampleLatency(utilization float64) sim.Duration {
	base := m.Latency(utilization)
	if m.LatencyJitterStd <= 0 || m.rng == nil {
		return base
	}
	noisy := base + sim.Duration(m.rng.NormFloat64()*float64(m.LatencyJitterStd))
	if noisy < base/2 {
		noisy = base / 2
	}
	return noisy
}

// NewBareMetal returns the pos (hardware testbed) DuT model: two Xeon Silver
// 4214 sockets, but Linux forwarding of a single flow is effectively bound to
// one core — 2.2 GHz over ≈1257 cycles/packet ≈ 1.75 Mpps, size-independent.
func NewBareMetal() *CycleModel {
	m := &CycleModel{
		ModelName:          "baremetal",
		BudgetCyclesPerSec: 2.2e9,
		PerPacketCycles:    1257,
		PerByteCycles:      0,
		BaseLatency:        4 * sim.Microsecond,
		LatencyJitterStd:   1500 * sim.Nanosecond,
	}
	m.Seed(0x706f73) // deterministic default; capacity stays jitter-free
	return m
}

// NewVirtual returns the vpos DuT model: a KVM guest behind Linux bridges.
// The fixed cost is dominated by VM exits and bridge traversals, the
// per-byte cost by packet copies, and capacity is redrawn with ±20%-class
// jitter every interval. Calibration: ≈65 kpps for 64 B frames and ≈53 kpps
// for 1500 B frames nominal, with the jitter floor keeping both sizes
// drop-free at ≤40 kpps — Fig. 3b's stable region.
func NewVirtual(seed uint64) *CycleModel {
	m := &CycleModel{
		ModelName:          "vm",
		BudgetCyclesPerSec: 1.3e9,
		PerPacketCycles:    20000,
		PerByteCycles:      3,
		BaseLatency:        60 * sim.Microsecond,
		LatencyJitterStd:   25 * sim.Microsecond,
		JitterLow:          0.78,
		JitterHigh:         1.15,
		JitterInterval:     100 * sim.Millisecond,
	}
	m.Seed(seed)
	return m
}
