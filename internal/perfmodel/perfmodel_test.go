package perfmodel

import (
	"testing"

	"pos/internal/sim"
)

func TestBareMetalCapacityMatchesPaper(t *testing.T) {
	m := NewBareMetal()
	got := m.CapacityPPS(0, 64)
	if got < 1.70e6 || got > 1.80e6 {
		t.Errorf("64B capacity = %.0f pps, want ~1.75M (Fig. 3a)", got)
	}
	// Size independence: the bare-metal model is CPU-bound per packet,
	// not per byte; the 1500 B ceiling comes from the NIC, not here.
	if got1500 := m.CapacityPPS(0, 1500); got1500 != got {
		t.Errorf("capacity depends on size: %v vs %v", got, got1500)
	}
}

func TestBareMetalIsDeterministic(t *testing.T) {
	m := NewBareMetal()
	a := m.CapacityPPS(0, 64)
	b := m.CapacityPPS(sim.Time(10*sim.Second), 64)
	if a != b {
		t.Errorf("bare-metal capacity varies over time: %v vs %v", a, b)
	}
}

func TestVirtualDropFreeRegionMatchesPaper(t *testing.T) {
	m := NewVirtual(1)
	for _, size := range []int{64, 1500} {
		floor := maxDropFreePPS(m, size)
		if floor < 40e3 {
			t.Errorf("drop-free floor for %dB = %.0f pps, want >= 40k (Fig. 3b)", size, floor)
		}
		if floor > 80e3 {
			t.Errorf("drop-free floor for %dB = %.0f pps, implausibly high", size, floor)
		}
	}
}

func TestVirtualBareMetalGapFactor(t *testing.T) {
	// "a decrease in the maximum forwarding throughput by a factor of up
	// to 44" — bare-metal max vs VM drop-free max.
	bm := NewBareMetal()
	vm := NewVirtual(1)
	ratio := bm.CapacityPPS(0, 64) / maxDropFreePPS(vm, 1500)
	if ratio < 30 || ratio > 55 {
		t.Errorf("bare-metal/VM ratio = %.1f, want ~44", ratio)
	}
}

func TestVirtualCapacityIsSizeDependent(t *testing.T) {
	vm := NewVirtual(1)
	small := vm.nominalPPS(64)
	large := vm.nominalPPS(1500)
	if small <= large {
		t.Errorf("VM capacity 64B=%.0f <= 1500B=%.0f, want per-byte cost to matter", small, large)
	}
}

func TestVirtualJitterRedrawsPerInterval(t *testing.T) {
	vm := NewVirtual(7)
	first := vm.CapacityPPS(0, 64)
	// Within the same interval the capacity is stable.
	if again := vm.CapacityPPS(sim.Time(10*sim.Millisecond), 64); again != first {
		t.Errorf("capacity changed within an interval: %v vs %v", first, again)
	}
	// Across intervals it fluctuates.
	changed := false
	for i := 1; i <= 20; i++ {
		at := sim.Time(i) * sim.Time(100*sim.Millisecond)
		if vm.CapacityPPS(at, 64) != first {
			changed = true
			break
		}
	}
	if !changed {
		t.Error("capacity never changed across 20 jitter intervals")
	}
}

func TestVirtualJitterBounds(t *testing.T) {
	vm := NewVirtual(99)
	nominal := vm.nominalPPS(64)
	for i := 0; i < 200; i++ {
		at := sim.Time(i) * sim.Time(100*sim.Millisecond)
		c := vm.CapacityPPS(at, 64)
		if c < nominal*vm.JitterLow-1 || c > nominal*vm.JitterHigh+1 {
			t.Fatalf("capacity %v outside jitter bounds [%v, %v]",
				c, nominal*vm.JitterLow, nominal*vm.JitterHigh)
		}
	}
}

func TestVirtualSameSeedSameSequence(t *testing.T) {
	a, b := NewVirtual(42), NewVirtual(42)
	for i := 0; i < 50; i++ {
		at := sim.Time(i) * sim.Time(100*sim.Millisecond)
		if a.CapacityPPS(at, 64) != b.CapacityPPS(at, 64) {
			t.Fatal("same seed produced different capacity sequences")
		}
	}
}

func TestUnseededJitterPanics(t *testing.T) {
	m := &CycleModel{
		ModelName:          "broken",
		BudgetCyclesPerSec: 1e9,
		PerPacketCycles:    100,
		JitterLow:          0.5,
		JitterHigh:         1.5,
		JitterInterval:     sim.Millisecond,
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unseeded jittered model")
		}
	}()
	m.CapacityPPS(0, 64)
}

func TestLatencyGrowsWithUtilization(t *testing.T) {
	m := NewBareMetal()
	idle := m.Latency(0)
	busy := m.Latency(1)
	if busy <= idle {
		t.Errorf("latency did not grow: idle=%v busy=%v", idle, busy)
	}
	if m.Latency(-1) != idle {
		t.Error("negative utilization not clamped")
	}
	if m.Latency(100) != m.Latency(4) {
		t.Error("excess utilization not clamped")
	}
}

func TestSampleLatencyJitter(t *testing.T) {
	m := NewBareMetal()
	base := m.Latency(0)
	seen := map[sim.Duration]bool{}
	for i := 0; i < 200; i++ {
		s := m.SampleLatency(0)
		if s < base/2 {
			t.Fatalf("sample %v below floor %v", s, base/2)
		}
		seen[s] = true
	}
	if len(seen) < 50 {
		t.Errorf("jitter produced only %d distinct samples", len(seen))
	}
	// Without jitter the sample equals the deterministic latency.
	plain := &CycleModel{ModelName: "plain", BudgetCyclesPerSec: 1e9, PerPacketCycles: 100, BaseLatency: sim.Microsecond}
	if plain.SampleLatency(0) != plain.Latency(0) {
		t.Error("jitter-free model sampled noise")
	}
}

func TestSampleLatencyDeterministicPerSeed(t *testing.T) {
	a, b := NewBareMetal(), NewBareMetal()
	for i := 0; i < 100; i++ {
		if a.SampleLatency(0.5) != b.SampleLatency(0.5) {
			t.Fatal("same default seed diverged")
		}
	}
}

func TestVMLatencyExceedsBareMetal(t *testing.T) {
	if NewVirtual(1).Latency(0) <= NewBareMetal().Latency(0) {
		t.Error("VM base latency should exceed bare metal")
	}
}

func TestZeroCostModelYieldsZeroCapacity(t *testing.T) {
	m := &CycleModel{ModelName: "degenerate", BudgetCyclesPerSec: 1e9}
	if got := m.CapacityPPS(0, 64); got != 0 {
		t.Errorf("capacity = %v, want 0 for zero cost", got)
	}
}

func TestModelNames(t *testing.T) {
	if NewBareMetal().Name() != "baremetal" {
		t.Error("bare metal name")
	}
	if NewVirtual(0).Name() != "vm" {
		t.Error("vm name")
	}
}

// maxDropFreePPS is the worst-case (jitter floor) capacity for the given
// frame size: the highest offered rate guaranteed to be forwarded without
// loss.
func maxDropFreePPS(m *CycleModel, frameSize int) float64 {
	pps := m.nominalPPS(frameSize)
	if m.JitterInterval > 0 && m.JitterHigh > m.JitterLow {
		pps *= m.JitterLow
	}
	return pps
}
