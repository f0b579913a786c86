package pos_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablation benches for the design choices DESIGN.md calls
// out. Each figure bench executes the full sweep that regenerates the
// figure's data and reports the headline numbers (plateaus, drop-free
// limits) as custom metrics, so `go test -bench` output doubles as the
// reproduction record used by EXPERIMENTS.md.

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"pos/internal/casestudy"
	"pos/internal/compare"
	"pos/internal/core"
	"pos/internal/hosttools"
	"pos/internal/loadgen"
	"pos/internal/ndr"
	"pos/internal/netem"
	"pos/internal/packet"
	"pos/internal/perfmodel"
	"pos/internal/results"
	"pos/internal/router"
	"pos/internal/sched"
	"pos/internal/sim"
)

// BenchmarkFigure3aBareMetal regenerates Fig. 3a: bare-metal Linux-router
// throughput over the extended rate axis for 64 B and 1500 B frames.
// Reported metrics: the measured plateaus in Mpps (paper: ~1.75 and ~0.80).
func BenchmarkFigure3aBareMetal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		topo, err := casestudy.New(casestudy.BareMetal)
		if err != nil {
			b.Fatal(err)
		}
		sweep := casestudy.ExtendedSweep()
		max := map[int]float64{}
		for _, rate := range sweep.RatesPPS {
			for _, size := range sweep.Sizes {
				p, err := topo.DirectRun(size, float64(rate), 1)
				if err != nil {
					b.Fatal(err)
				}
				if p.RxMpps > max[size] {
					max[size] = p.RxMpps
				}
			}
		}
		topo.Close()
		b.ReportMetric(max[64], "plateau64B_Mpps")
		b.ReportMetric(max[1500], "plateau1500B_Mpps")
		if max[64] < 1.70 || max[64] > 1.82 {
			b.Fatalf("64B plateau = %.3f Mpps, want ~1.75", max[64])
		}
		if max[1500] < 0.78 || max[1500] > 0.84 {
			b.Fatalf("1500B plateau = %.3f Mpps, want ~0.81", max[1500])
		}
	}
}

// BenchmarkFigure3bVirtual regenerates Fig. 3b: vpos throughput over the
// paper's 10k–300k pps axis. Reported metrics: the highest drop-free rate
// (paper: ~0.04 Mpps) and the overloaded plateaus per size.
func BenchmarkFigure3bVirtual(b *testing.B) {
	for i := 0; i < b.N; i++ {
		topo, err := casestudy.New(casestudy.Virtual, casestudy.WithSeed(1))
		if err != nil {
			b.Fatal(err)
		}
		sweep := casestudy.PaperSweep()
		dropFree := 0.0
		max := map[int]float64{}
		for _, rate := range sweep.RatesPPS {
			lossFree := true
			for _, size := range sweep.Sizes {
				p, err := topo.DirectRun(size, float64(rate), 1)
				if err != nil {
					b.Fatal(err)
				}
				if p.LossRatio > 0.001 {
					lossFree = false
				}
				if p.RxMpps > max[size] {
					max[size] = p.RxMpps
				}
			}
			if lossFree {
				dropFree = float64(rate) / 1e6
			}
		}
		topo.Close()
		b.ReportMetric(dropFree, "dropfree_Mpps")
		b.ReportMetric(max[64], "max64B_Mpps")
		b.ReportMetric(max[1500], "max1500B_Mpps")
		if dropFree < 0.03 || dropFree > 0.06 {
			b.Fatalf("drop-free limit = %.3f Mpps, want ~0.04", dropFree)
		}
		if max[64] > 0.09 {
			b.Fatalf("VM 64B max = %.3f Mpps, implausibly high", max[64])
		}
	}
}

// BenchmarkTable1Comparison regenerates Table 1 from the feature models.
func BenchmarkTable1Comparison(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := compare.Write(io.Discard); err != nil {
			b.Fatal(err)
		}
		rows := compare.Table()
		if len(rows) != 7 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkAppendixWorkflow runs the full Appendix A experiment (60
// measurement runs through the complete TCP control plane) once per
// iteration — the end-to-end cost of the paper's 3-hour campaign in
// emulation. `make profile-campaign` profiles it.
func BenchmarkAppendixWorkflow(b *testing.B) {
	b.ReportAllocs()
	var wall time.Duration
	for i := 0; i < b.N; i++ {
		topo, err := casestudy.New(casestudy.BareMetal)
		if err != nil {
			b.Fatal(err)
		}
		store, err := results.NewStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		sweep := casestudy.PaperSweep()
		sweep.RuntimeSec = 1
		start := time.Now()
		sum, err := topo.Testbed.Runner().Run(context.Background(), topo.Experiment(sweep), store)
		wall += time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		if sum.TotalRuns != 60 || sum.FailedRuns != 0 {
			b.Fatalf("summary = %+v", sum)
		}
		topo.Close()
		b.ReportMetric(float64(sum.TotalRuns), "runs")
	}
	b.ReportMetric(wall.Seconds()*1000/float64(b.N), "wall_ms/op")
}

// BenchmarkQueueLaunch is what the queue's launcher does per admitted
// campaign, again and again against one store, the way a controller that
// stays up does it: two fresh vpos replicas, a 2 sizes × 4 rates sweep through
// sched.Campaign.Run, every campaign under a name of its own. `make
// profile-queue` runs it under both profilers. The store stays reachable
// (queueLaunchStore) until the heap profile is written at exit, so that
// profile's inuse_space is what the campaigns left behind in it.
func BenchmarkQueueLaunch(b *testing.B) {
	b.ReportAllocs()
	store, err := results.NewStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	queueLaunchStore = store
	cfg := casestudy.SweepConfig{
		Sizes:      []int{64, 1500},
		RatesPPS:   []int{10_000, 20_000, 30_000, 40_000},
		RuntimeSec: 1,
		User:       "tenant",
	}
	for i := 0; i < b.N; i++ {
		topos, err := casestudy.NewReplicas(casestudy.Virtual, 2, casestudy.WithSeed(1))
		if err != nil {
			b.Fatal(err)
		}
		reps := casestudy.Replicas(topos, cfg)
		for r := range reps {
			reps[r].Experiment.Name = fmt.Sprintf("c%06d", i)
		}
		sum, err := (&sched.Campaign{Replicas: reps}).Run(context.Background(), store)
		for _, t := range topos {
			t.Close()
		}
		if err != nil {
			b.Fatal(err)
		}
		if sum.TotalRuns != 8 || sum.FailedRuns != 0 {
			b.Fatalf("summary = %+v", sum)
		}
	}
}

var queueLaunchStore *results.Store

// BenchmarkAblationSwitching quantifies the latency cost of switched vs.
// direct topologies (Sec. 7): direct wiring, an optical L1 cross-connect
// (~15 ns), and an L2 cut-through switch (~300 ns).
func BenchmarkAblationSwitching(b *testing.B) {
	cases := []struct {
		name string
		opts []casestudy.Option
	}{
		{"DirectWiring", nil},
		{"OpticalL1", []casestudy.Option{casestudy.WithSwitch(15 * sim.Nanosecond)}},
		{"CutThroughL2", []casestudy.Option{casestudy.WithSwitch(300 * sim.Nanosecond)}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				topo, err := casestudy.New(casestudy.BareMetal, tc.opts...)
				if err != nil {
					b.Fatal(err)
				}
				samples, err := topo.LatencySamples(64, 10_000, 1)
				if err != nil {
					b.Fatal(err)
				}
				var sum float64
				for _, s := range samples {
					sum += s
				}
				topo.Close()
				b.ReportMetric(sum/float64(len(samples))/1000, "avg_latency_us")
			}
		})
	}
}

// BenchmarkAblationCleanBoot measures the cost of the strongest isolation
// mode — rebooting and re-running setup before every measurement run —
// against the paper's default of one boot per experiment.
func BenchmarkAblationCleanBoot(b *testing.B) {
	run := func(b *testing.B, rebootPerRun bool) {
		for i := 0; i < b.N; i++ {
			topo, err := casestudy.New(casestudy.BareMetal)
			if err != nil {
				b.Fatal(err)
			}
			store, err := results.NewStore(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			sweep := casestudy.SweepConfig{Sizes: []int{64}, RatesPPS: []int{10_000, 50_000, 100_000, 200_000}, RuntimeSec: 1}
			runner := topo.Testbed.Runner()
			runner.RebootBetweenRuns = rebootPerRun
			sum, err := runner.Run(context.Background(), topo.Experiment(sweep), store)
			if err != nil {
				b.Fatal(err)
			}
			if sum.FailedRuns != 0 {
				b.Fatal("runs failed")
			}
			topo.Close()
		}
	}
	b.Run("BootPerExperiment", func(b *testing.B) { run(b, false) })
	b.Run("BootPerRun", func(b *testing.B) { run(b, true) })
}

// BenchmarkCrossProduct measures loop-variable expansion — the paper's
// 60-run case plus a larger 3-variable space.
func BenchmarkCrossProduct(b *testing.B) {
	paper := []core.LoopVar{
		{Name: "pkt_sz", Values: []string{"64", "1500"}},
		{Name: "pkt_rate", Values: make([]string, 30)},
	}
	for i := range paper[1].Values {
		paper[1].Values[i] = "r"
	}
	big := append(append([]core.LoopVar(nil), paper...), core.LoopVar{Name: "trial", Values: make([]string, 20)})
	for i := range big[2].Values {
		big[2].Values[i] = "t"
	}
	b.Run("Paper60", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.CrossProduct(paper); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Runs1200", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.CrossProduct(big); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMindTheGap compares the fidelity of the three traffic-generator
// classes the paper's load-generator discussion cites (MoonGen vs. OSNT vs.
// iPerf): per-second rate stability and latency-sample spread at the same
// offered load on the same bare-metal DuT.
func BenchmarkMindTheGap(b *testing.B) {
	profiles := []loadgen.Profile{loadgen.MoonGenProfile(), loadgen.OSNTProfile(), loadgen.IPerfProfile()}
	for _, p := range profiles {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				topo, err := casestudy.New(casestudy.BareMetal, casestudy.WithGenerator(p.Name))
				if err != nil {
					b.Fatal(err)
				}
				topo.Router.SetForwarding(true)
				res, err := topo.Gen.Run(loadgenRunConfig(100_000, 5))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(relStddev(res.PerSecondTx[:5])*100, "rate_cv_pct")
				if res.LatencyAvailable {
					var xs []float64
					for _, d := range res.Latencies {
						xs = append(xs, float64(d))
					}
					// Absolute spread in µs: the measurement
					// noise floor of the generator class.
					b.ReportMetric(absStddev(xs)/1000, "latency_sd_us")
				}
				topo.Close()
			}
		})
	}
}

func loadgenRunConfig(rate float64, seconds float64) loadgen.RunConfig {
	return loadgen.RunConfig{
		Template: packet.UDPTemplate{
			SrcMAC: packet.MAC{2, 0, 0, 0, 0, 1}, DstMAC: packet.MAC{2, 0, 0, 0, 0, 2},
			SrcIP: packet.IPv4Addr{10, 0, 0, 2}, DstIP: packet.IPv4Addr{10, 0, 1, 2},
			SrcPort: 1234, DstPort: 4321, FrameSize: 64,
		},
		RatePPS:  rate,
		Duration: sim.Duration(seconds * float64(sim.Second)),
	}
}

func absStddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var sq float64
	for _, x := range xs {
		d := x - mean
		sq += d * d
	}
	return math.Sqrt(sq / float64(len(xs)-1))
}

func relStddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	if mean == 0 {
		return 0
	}
	return absStddev(xs) / mean
}

// BenchmarkNDRSearch measures the RFC 2544-style non-drop-rate search on
// both platforms and reports the found NDR — the methodology extension on
// top of the paper's fixed-grid sweep.
func BenchmarkNDRSearch(b *testing.B) {
	cases := []struct {
		name   string
		flavor casestudy.Flavor
		max    float64
	}{
		{"BareMetal64B", casestudy.BareMetal, 2_500_000},
		{"Virtual1500B", casestudy.Virtual, 300_000},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				topo, err := casestudy.New(tc.flavor, casestudy.WithSeed(1))
				if err != nil {
					b.Fatal(err)
				}
				size := 64
				if tc.flavor == casestudy.Virtual {
					size = 1500
				}
				res, err := ndr.Search(ndr.Config{MinPPS: 10_000, MaxPPS: tc.max, Precision: 0.005},
					func(rate float64) (float64, error) {
						p, err := topo.DirectRun(size, rate, 1)
						if err != nil {
							return 0, err
						}
						return p.LossRatio, nil
					})
				if err != nil {
					b.Fatal(err)
				}
				topo.Close()
				b.ReportMetric(res.NDRPPS/1e6, "ndr_Mpps")
				b.ReportMetric(float64(len(res.Trials)), "trials")
			}
		})
	}
}

// BenchmarkRobustnessPacketSize sweeps the packet size at fixed overload —
// the robustness concern the paper cites (small input variations flipping
// the bottleneck). Reported metric: the crossover size between the
// CPU-bound and NIC-bound regimes.
func BenchmarkRobustnessPacketSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		topo, err := casestudy.New(casestudy.BareMetal)
		if err != nil {
			b.Fatal(err)
		}
		crossover := 0
		for size := 64; size <= 1500; size += 10 {
			p, err := topo.DirectRun(size, 1_800_000, 1)
			if err != nil {
				b.Fatal(err)
			}
			// The first size where the NIC, not the CPU, caps
			// throughput.
			if crossover == 0 && p.RxMpps < 1.74 {
				crossover = size
			}
		}
		topo.Close()
		b.ReportMetric(float64(crossover), "crossover_bytes")
		// Analytic crossover: LineRatePPS(10G, s) == 1.75 Mpps at
		// s ≈ 694 B.
		if crossover < 650 || crossover > 740 {
			b.Fatalf("crossover at %d B, want ~694", crossover)
		}
	}
}

// BenchmarkAblationImperfectCabling quantifies what a marginal transceiver
// does to an NDR search: with a strict zero-loss criterion even 0.01%
// random loss collapses the measured NDR, while an accept-loss criterion
// recovers the true capacity — why RFC 2544-style tests must state their
// loss tolerance.
func BenchmarkAblationImperfectCabling(b *testing.B) {
	cases := []struct {
		name       string
		loss       float64
		acceptLoss float64
	}{
		{"CleanCableStrict", 0, 0},
		{"LossyCableStrict", 1e-4, 0},
		{"LossyCableTolerant", 1e-4, 1e-3},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				engine := sim.NewEngine()
				gen := loadgen.New(engine, "lg", true)
				rt, err := router.New(engine, router.Config{Name: "dut", Model: perfmodel.NewBareMetal(), HardwareTimestamps: true})
				if err != nil {
					b.Fatal(err)
				}
				netem.Wire(engine, gen.TxPort(), rt.Port(0), netem.LinkConfig{LossRatio: tc.loss, Seed: 11})
				netem.Wire(engine, rt.Port(1), gen.RxPort(), netem.LinkConfig{})
				res, err := ndr.Search(ndr.Config{MinPPS: 10_000, MaxPPS: 2_500_000, Precision: 0.005, AcceptLoss: tc.acceptLoss},
					func(rate float64) (float64, error) {
						r, err := gen.Run(loadgenRunConfig(rate, 1))
						if err != nil {
							return 0, err
						}
						return r.LossRatio(), nil
					})
				switch {
				case tc.loss > 0 && tc.acceptLoss == 0:
					// Random loss defeats a strict search: it
					// either reports loss-at-minimum or
					// collapses far below the true 1.75 Mpps
					// capacity.
					if err == nil && res.NDRPPS > 0.5e6 {
						b.Fatalf("strict search on lossy cable converged to %.0f", res.NDRPPS)
					}
					b.ReportMetric(res.NDRPPS/1e6, "ndr_Mpps")
				case err != nil:
					b.Fatal(err)
				default:
					b.ReportMetric(res.NDRPPS/1e6, "ndr_Mpps")
					if res.NDRPPS < 1.6e6 {
						b.Fatalf("NDR = %.0f, want ~1.75M", res.NDRPPS)
					}
				}
			}
		})
	}
}

// waitHost is a core.Host whose measurement phase blocks for a fixed wall
// time — the shape of a real testbed run, where the controller mostly waits
// on remote hosts. Campaign scheduling wins exactly here: the waits of
// different runs overlap across replicas.
type waitHost struct {
	name  string
	delay time.Duration
}

func (h *waitHost) Name() string                            { return h.name }
func (h *waitHost) SetBoot(string, map[string]string) error { return nil }
func (h *waitHost) Reboot() error                           { return nil }
func (h *waitHost) DeployTools() error                      { return nil }
func (h *waitHost) Exec(ctx context.Context, script string, _ map[string]string) (string, error) {
	if strings.Contains(script, "measure") {
		select {
		case <-time.After(h.delay):
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
	return "ok", nil
}

func benchSweep(node string) *core.Experiment {
	rates := make([]string, 8)
	for i := range rates {
		rates[i] = fmt.Sprint((i + 1) * 10_000)
	}
	return &core.Experiment{
		Name:     "parallel-bench",
		User:     "user",
		LoopVars: []core.LoopVar{{Name: "pkt_rate", Values: rates}},
		Hosts: []core.HostSpec{{
			Role: "loadgen", Node: node, Image: "debian-buster",
			Setup: "setup", Measurement: "measure",
		}},
		Duration: time.Hour,
	}
}

func benchReplica(name, node string, delay time.Duration) sched.Replica {
	h := &waitHost{name: node, delay: delay}
	return sched.Replica{
		Name:       name,
		Runner:     &core.Runner{Hosts: map[string]core.Host{node: h}, Service: hosttools.NewService(nil)},
		Experiment: benchSweep(node),
	}
}

// dataPlaneAllocsPerRun is the allocation budget of one warmed batched
// measurement run (1000 packet trains): 15 measured with go1.24.0 on the
// commit after 0418213, plus 15 %. Every one of them is spent starting the
// run and assembling its result; none scales with the trains.
const dataPlaneAllocsPerRun = 17

// TestDataPlaneAllocations holds a warmed batched topology to
// dataPlaneAllocsPerRun.
func TestDataPlaneAllocations(t *testing.T) {
	topo, err := casestudy.New(casestudy.BareMetal)
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()
	// Warm the pools, the rewrite memo and the result buffers.
	if _, err := topo.DirectRun(64, 1_800_000, 1); err != nil {
		t.Fatal(err)
	}
	perRun := testing.AllocsPerRun(5, func() {
		if _, err := topo.DirectRun(64, 1_800_000, 1); err != nil {
			t.Fatal(err)
		}
	})
	if perRun > dataPlaneAllocsPerRun {
		t.Fatalf("batched run allocates %.0f times, budget is %d", perRun, dataPlaneAllocsPerRun)
	}
}
