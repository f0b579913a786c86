package casestudy

import (
	"fmt"
	"time"

	"pos/internal/core"
	"pos/internal/loadgen"
	"pos/internal/pcap"
	"pos/internal/sched"
	"pos/internal/sim"
)

// Scripts of the case study. They are deliberately identical for pos and
// vpos — the experiment definition never changes between platforms; only
// the testbed underneath does.
const (
	// LoadGenSetup configures the traffic source.
	LoadGenSetup = `# LoadGen setup: announce readiness and wait for the DuT.
echo configuring MoonGen on $NODE as $ROLE
pos_set_var global loadgen_ready 1
pos_sync setup_done 2
`
	// DuTSetup turns the host into a router.
	DuTSetup = `# DuT setup: enable IPv4 forwarding, then meet the LoadGen.
echo enabling ip_forward on $NODE
router_enable
pos_set_var global dut_ready 1
pos_sync setup_done 2
`
	// LoadGenMeasurement runs one MoonGen measurement and uploads its log.
	LoadGenMeasurement = `# One measurement run: rate and size come from the loop variables.
echo run $RUN rate=$pkt_rate size=$pkt_sz
pos_run moongen.log moongen --rate $pkt_rate --size $pkt_sz --time $runtime
pos_sync run_done 2
`
	// DuTMeasurement waits out the run, then uploads forwarding counters.
	DuTMeasurement = `# The DuT is passive during a run; collect its counters afterwards.
pos_sync run_done 2
pos_run router.stats router_stats --reset
`
)

// SweepConfig parameterizes the experiment definition.
type SweepConfig struct {
	// Sizes are the frame sizes in bytes (paper: 64 and 1500).
	Sizes []int
	// RatesPPS are the offered rates (paper: 10000..300000 step 10000).
	RatesPPS []int
	// RuntimeSec is the per-run measurement window in virtual seconds.
	RuntimeSec float64
	// User owns the allocation; defaults to "user" as in vpos.
	User string
}

// PaperSweep returns the exact parameter space of Appendix A: 2 sizes x 30
// rates = 60 measurement runs.
func PaperSweep() SweepConfig {
	cfg := SweepConfig{Sizes: []int{64, 1500}, RuntimeSec: 2}
	for r := 10_000; r <= 300_000; r += 10_000 {
		cfg.RatesPPS = append(cfg.RatesPPS, r)
	}
	return cfg
}

// ExtendedSweep widens the rate axis so both Fig. 3a plateaus (the 1.75 Mpps
// CPU limit and the ~0.81 Mpps NIC line-rate ceiling) become visible.
func ExtendedSweep() SweepConfig {
	cfg := SweepConfig{Sizes: []int{64, 1500}, RuntimeSec: 2}
	for r := 100_000; r <= 2_200_000; r += 100_000 {
		cfg.RatesPPS = append(cfg.RatesPPS, r)
	}
	return cfg
}

// Experiment renders the sweep as a pos experiment bound to the topology's
// nodes. The returned definition is pure data — scripts and variables.
func (t *Topology) Experiment(cfg SweepConfig) *core.Experiment {
	return sweepExperiment(t.expName, t.Flavor, t.LoadGen, t.DuT, cfg)
}

// sweepExperiment renders a sweep as the case study's experiment definition
// named name, its roles bound to the given load-generator and DuT nodes.
func sweepExperiment(name string, flavor Flavor, loadGen, dut string, cfg SweepConfig) *core.Experiment {
	user := cfg.User
	if user == "" {
		user = "user"
	}
	runtime := cfg.RuntimeSec
	if runtime <= 0 {
		runtime = 2
	}
	var sizes, rates []string
	for _, s := range cfg.Sizes {
		sizes = append(sizes, fmt.Sprint(s))
	}
	for _, r := range cfg.RatesPPS {
		rates = append(rates, fmt.Sprint(r))
	}
	return &core.Experiment{
		Name: name,
		User: user,
		GlobalVars: core.Vars{
			"runtime": fmt.Sprintf("%g", runtime),
			"flavor":  string(flavor),
		},
		LoopVars: []core.LoopVar{
			{Name: "pkt_sz", Values: sizes},
			{Name: "pkt_rate", Values: rates},
		},
		Hosts: []core.HostSpec{
			{
				Role:        "loadgen",
				Node:        loadGen,
				Image:       "debian-buster@20201012T110000Z",
				LocalVars:   core.Vars{"port_tx": "eno1", "port_rx": "eno2"},
				Setup:       LoadGenSetup,
				Measurement: LoadGenMeasurement,
			},
			{
				Role:        "dut",
				Node:        dut,
				Image:       "debian-buster@20201012T110000Z",
				LocalVars:   core.Vars{"port_in": "eno1", "port_out": "eno2"},
				Setup:       DuTSetup,
				Measurement: DuTMeasurement,
			},
		},
		Duration: 3 * time.Hour,
	}
}

// Replicas renders one sweep as campaign replicas over the given topologies
// (built with NewReplicas): each replica is that topology's runner plus the
// identical experiment definition bound to its nodes. Feed the result to a
// sched.Campaign to shard the sweep.
func Replicas(topos []*Topology, cfg SweepConfig) []sched.Replica {
	reps := make([]sched.Replica, len(topos))
	for i, t := range topos {
		reps[i] = sched.Replica{
			Name:       fmt.Sprintf("replica%d", i),
			Runner:     t.Runner(),
			Experiment: t.Experiment(cfg),
		}
	}
	return reps
}

// DirectRun performs one measurement run against the data plane without the
// control plane — the fast path used by the benchmark harness to sweep the
// figures (each sweep point is identical to what a full workflow run
// produces; integration tests assert that equivalence).
func (t *Topology) DirectRun(frameSize int, ratePPS float64, durationSec float64) (RunPoint, error) {
	t.SetForwarding(true)
	cfg := moonGenConfig{frameSize: frameSize}
	cfg.RatePPS = ratePPS
	cfg.Duration = sim.Duration(durationSec * float64(sim.Second))
	cfg.Template = t.template(frameSize)
	res, err := t.runMeasurement(cfg.RunConfig)
	if err != nil {
		return RunPoint{}, err
	}
	return RunPoint{
		Flavor:     t.Flavor,
		FrameSize:  frameSize,
		OfferedPPS: ratePPS,
		TxMpps:     res.TxRatePPS / 1e6,
		RxMpps:     res.RxRatePPS / 1e6,
		LossRatio:  res.LossRatio(),
		LatencyOK:  res.LatencyAvailable,
	}, nil
}

// LatencySamples performs one measurement run and returns the raw one-way
// latency samples in nanoseconds. It fails on platforms without end-to-end
// hardware timestamping (vpos), matching the paper's limitation.
func (t *Topology) LatencySamples(frameSize int, ratePPS, durationSec float64) ([]float64, error) {
	t.SetForwarding(true)
	cfg := moonGenConfig{frameSize: frameSize}
	cfg.RatePPS = ratePPS
	cfg.Duration = sim.Duration(durationSec * float64(sim.Second))
	cfg.Template = t.template(frameSize)
	res, err := t.runMeasurement(cfg.RunConfig)
	if err != nil {
		return nil, err
	}
	if !res.LatencyAvailable {
		return nil, fmt.Errorf("casestudy: latency measurement unavailable on %s (no hardware timestamps)", t.Flavor)
	}
	out := make([]float64, len(res.Latencies))
	for i, d := range res.Latencies {
		out[i] = float64(d)
	}
	return out, nil
}

// ReplayRun replays captured frames through the DuT at the given rate
// (round-robin over the capture) and returns the measured point — the
// pcap-based traffic source the paper names alongside synthetic generation.
func (t *Topology) ReplayRun(packets []pcap.Packet, ratePPS, durationSec float64) (RunPoint, error) {
	if len(packets) == 0 {
		return RunPoint{}, fmt.Errorf("casestudy: empty capture")
	}
	t.SetForwarding(true)
	res, err := t.Gen.Run(loadgen.RunConfig{
		Replay:   packets,
		RatePPS:  ratePPS,
		Duration: sim.Duration(durationSec * float64(sim.Second)),
	})
	if err != nil {
		return RunPoint{}, err
	}
	return RunPoint{
		Flavor:     t.Flavor,
		FrameSize:  res.FrameSize,
		OfferedPPS: ratePPS,
		TxMpps:     res.TxRatePPS / 1e6,
		RxMpps:     res.RxRatePPS / 1e6,
		LossRatio:  res.LossRatio(),
		LatencyOK:  res.LatencyAvailable,
	}, nil
}

// RunPoint is one point of a throughput sweep — one cell of Fig. 3.
type RunPoint struct {
	Flavor     Flavor
	FrameSize  int
	OfferedPPS float64
	TxMpps     float64
	RxMpps     float64
	LossRatio  float64
	LatencyOK  bool
}
