package casestudy

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"pos/internal/core"
	"pos/internal/eval"
	"pos/internal/eventlog"
	"pos/internal/loadgen"
	"pos/internal/moonparse"
	"pos/internal/packet"
	"pos/internal/pcap"
	"pos/internal/results"
	"pos/internal/sched"
	"pos/internal/sim"
)

func TestFullWorkflowBareMetal(t *testing.T) {
	// The appendix experiment, miniaturized: 2 sizes x 3 rates through
	// the complete control plane (calendar, BMC boot, shell scripts,
	// barriers, uploads).
	topo, err := New(BareMetal)
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()
	store, err := results.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := SweepConfig{
		Sizes:      []int{64, 1500},
		RatesPPS:   []int{10_000, 150_000, 300_000},
		RuntimeSec: 1,
	}
	exp := topo.Experiment(cfg)
	runner := topo.Testbed.Runner()
	sum, err := runner.Run(context.Background(), exp, store)
	if err != nil {
		t.Fatal(err)
	}
	if sum.TotalRuns != 6 || sum.FailedRuns != 0 {
		t.Fatalf("summary = %+v", sum)
	}

	ids, _ := store.ListExperiments("user", "linux-router-pos")
	e, err := store.OpenExperiment("user", "linux-router-pos", ids[0])
	if err != nil {
		t.Fatal(err)
	}
	// Every run produced a parseable MoonGen log and router counters.
	for run := 0; run < 6; run++ {
		logData, err := e.ReadRunArtifact(run, topo.LoadGen, "moongen.log")
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		rep, err := moonparse.ParseBytes(logData)
		if err != nil {
			t.Fatalf("run %d: parse: %v\n%s", run, err, logData)
		}
		meta, err := e.ReadRunMeta(run)
		if err != nil {
			t.Fatal(err)
		}
		// Below all bare-metal limits, RX == offered rate.
		wantMpps := atof(meta.LoopVars["pkt_rate"]) / 1e6
		line := packet.LineRatePPS(10e9, atoi(meta.LoopVars["pkt_sz"])) / 1e6
		if wantMpps > line {
			wantMpps = line
		}
		if got := rep.RxMpps(); got < wantMpps*0.98 || got > wantMpps*1.02 {
			t.Errorf("run %d (%s): RX = %.4f Mpps, want ~%.4f", run, meta.LoopVars, got, wantMpps)
		}
		// Latency measured on bare metal.
		if rep.Latency == nil {
			t.Errorf("run %d: no latency on bare metal", run)
		}
		stats, err := e.ReadRunArtifact(run, topo.DuT, "router.stats")
		if err != nil {
			t.Fatalf("run %d: router stats: %v", run, err)
		}
		if !strings.Contains(string(stats), "forwarded=") {
			t.Errorf("run %d: stats = %q", run, stats)
		}
	}
}

// TestTwoReplicaCampaign shards the vpos sweep across two independent
// virtual testbeds — the parallel-campaign demonstration: every run lands
// in one shared results experiment with the same numbering, parseable logs,
// and byte-identical metadata the sequential sweep produces.
func TestTwoReplicaCampaign(t *testing.T) {
	clock := func() time.Time { return time.Date(2021, 12, 7, 10, 0, 0, 0, time.UTC) }
	cfg := SweepConfig{
		Sizes:      []int{64, 1500},
		RatesPPS:   []int{10_000, 20_000, 30_000},
		RuntimeSec: 1,
	}

	topos, err := NewReplicas(Virtual, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range topos {
		defer topo.Close()
	}
	reps := Replicas(topos, cfg)
	for i := range reps {
		reps[i].Runner.Clock = clock
	}
	store, err := results.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sum, err := (&sched.Campaign{Replicas: reps}).Run(context.Background(), store)
	if err != nil {
		t.Fatal(err)
	}
	if sum.TotalRuns != 6 || sum.FailedRuns != 0 || len(sum.Records) != 6 {
		t.Fatalf("summary = %+v", sum)
	}

	// Sequential reference on a third identical testbed.
	seqTopo, err := New(Virtual)
	if err != nil {
		t.Fatal(err)
	}
	defer seqTopo.Close()
	seqRunner := seqTopo.Testbed.Runner()
	seqRunner.Clock = clock
	seqStore, err := results.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seqRunner.Run(context.Background(), seqTopo.Experiment(cfg), seqStore); err != nil {
		t.Fatal(err)
	}

	ids, _ := store.ListExperiments("user", "linux-router-vpos")
	e, err := store.OpenExperiment("user", "linux-router-vpos", ids[0])
	if err != nil {
		t.Fatal(err)
	}
	seqIDs, _ := seqStore.ListExperiments("user", "linux-router-vpos")
	seqExp, err := seqStore.OpenExperiment("user", "linux-router-vpos", seqIDs[0])
	if err != nil {
		t.Fatal(err)
	}

	combos, _ := core.CrossProduct(seqTopo.Experiment(cfg).LoopVars)
	for run := 0; run < 6; run++ {
		// Deterministic numbering: run i carries cross-product combo i no
		// matter which replica executed it.
		meta, err := e.ReadRunMeta(run)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range combos[run] {
			if meta.LoopVars[k] != v {
				t.Errorf("run %d: %s = %s, want %s", run, k, meta.LoopVars[k], v)
			}
		}
		// Every run produced a parseable MoonGen log.
		logData, err := e.ReadRunArtifact(run, "vriga", "moongen.log")
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if _, err := moonparse.ParseBytes(logData); err != nil {
			t.Errorf("run %d: parse: %v", run, err)
		}
		// Per-run metadata byte-identical to the sequential sweep.
		want, err := seqExp.ReadRunArtifact(run, "", "metadata.json")
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.ReadRunArtifact(run, "", "metadata.json")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("run %d metadata diverges:\nsequential: %s\ncampaign:   %s", run, want, got)
		}
	}
	// Both replicas booted and produced setup artifacts under their own
	// namespace; the campaign manifest records the sharding.
	for _, a := range []string{
		"setup/replica0/vriga.out",
		"setup/replica1/vtartu.out",
		"experiment/campaign.json",
	} {
		if _, err := e.ReadExperimentArtifact(a); err != nil {
			t.Errorf("missing artifact %s: %v", a, err)
		}
	}
}

func TestFullWorkflowVirtualHasNoLatency(t *testing.T) {
	topo, err := New(Virtual, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()
	store, err := results.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := SweepConfig{Sizes: []int{64}, RatesPPS: []int{20_000}, RuntimeSec: 1}
	if _, err := topo.Testbed.Runner().Run(context.Background(), topo.Experiment(cfg), store); err != nil {
		t.Fatal(err)
	}
	ids, _ := store.ListExperiments("user", "linux-router-vpos")
	e, _ := store.OpenExperiment("user", "linux-router-vpos", ids[0])
	logData, err := e.ReadRunArtifact(0, topo.LoadGen, "moongen.log")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := moonparse.ParseBytes(logData)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Latency != nil {
		t.Error("vpos produced latency measurements despite missing hardware timestamps (paper: impossible)")
	}
	// Throughput still measured, drop-free at 20 kpps.
	if got := rep.RxMpps(); got < 0.0195 || got > 0.0205 {
		t.Errorf("RX = %.4f Mpps, want ~0.02", got)
	}
}

func TestIdenticalScriptsAcrossPlatforms(t *testing.T) {
	// The paper's essential property: the experiment scripts for pos and
	// vpos are byte-identical; only the node bindings/testbed differ.
	a, err := New(BareMetal)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(Virtual)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ea := a.Experiment(PaperSweep())
	eb := b.Experiment(PaperSweep())
	for i := range ea.Hosts {
		if ea.Hosts[i].Setup != eb.Hosts[i].Setup {
			t.Errorf("setup script differs for %s", ea.Hosts[i].Role)
		}
		if ea.Hosts[i].Measurement != eb.Hosts[i].Measurement {
			t.Errorf("measurement script differs for %s", ea.Hosts[i].Role)
		}
	}
	if len(ea.LoopVars) != 2 || core.NumRuns(ea.LoopVars) != 60 {
		t.Errorf("paper sweep = %d runs, want 60", core.NumRuns(ea.LoopVars))
	}
}

func TestDirectRunBareMetalShape(t *testing.T) {
	topo, err := New(BareMetal)
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()
	// 64 B at 2.2 Mpps offered: plateau at ~1.75 Mpps.
	p, err := topo.DirectRun(64, 2_200_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.RxMpps < 1.70 || p.RxMpps > 1.82 {
		t.Errorf("64B overload RX = %.3f Mpps, want ~1.75", p.RxMpps)
	}
	// 1500 B at 1.0 Mpps offered: NIC ceiling ~0.81 Mpps.
	p, err = topo.DirectRun(1500, 1_000_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.RxMpps < 0.78 || p.RxMpps > 0.84 {
		t.Errorf("1500B overload RX = %.3f Mpps, want ~0.81", p.RxMpps)
	}
	if !p.LatencyOK {
		t.Error("latency unavailable on bare metal")
	}
}

func TestDirectRunVirtualShape(t *testing.T) {
	topo, err := New(Virtual, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()
	// Drop-free at 40 kpps for both sizes.
	for _, size := range []int{64, 1500} {
		p, err := topo.DirectRun(size, 40_000, 2)
		if err != nil {
			t.Fatal(err)
		}
		if p.LossRatio > 0.001 {
			t.Errorf("%dB at 40kpps: loss = %.4f, want ~0 (Fig. 3b)", size, p.LossRatio)
		}
		if p.LatencyOK {
			t.Error("vpos claims latency capability")
		}
	}
	// Overloaded at 300 kpps: far below offered, sizes diverge.
	p64, err := topo.DirectRun(64, 300_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	p1500, err := topo.DirectRun(1500, 300_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p64.RxMpps > 0.09 || p1500.RxMpps > 0.09 {
		t.Errorf("VM forwarded %.3f/%.3f Mpps at 300kpps, implausibly high", p64.RxMpps, p1500.RxMpps)
	}
	if p64.RxMpps <= p1500.RxMpps {
		t.Errorf("no size divergence under overload: 64B=%.4f 1500B=%.4f", p64.RxMpps, p1500.RxMpps)
	}
}

func TestBareMetalVirtualGap(t *testing.T) {
	bm, err := New(BareMetal)
	if err != nil {
		t.Fatal(err)
	}
	defer bm.Close()
	vm, err := New(Virtual, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Close()
	pb, err := bm.DirectRun(64, 2_200_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	// VM drop-free max is ~0.04 Mpps (the paper's comparison base).
	ratio := pb.RxMpps / 0.04
	if ratio < 38 || ratio > 50 {
		t.Errorf("bare-metal/VM gap = %.1fx, want ~44x", ratio)
	}
}

func TestSwitchedTopologyAblation(t *testing.T) {
	direct, err := New(BareMetal)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	switched, err := New(BareMetal, WithSwitch(netemCutThrough()))
	if err != nil {
		t.Fatal(err)
	}
	defer switched.Close()
	pd, err := direct.DirectRun(64, 10_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := switched.DirectRun(64, 10_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Same throughput either way…
	if pd.RxMpps != ps.RxMpps {
		t.Errorf("throughput differs: %.4f vs %.4f", pd.RxMpps, ps.RxMpps)
	}
}

func netemCutThrough() sim.Duration { return 300 * sim.Nanosecond }

// TestGeneratorProfiles: every fidelity profile plugs into the topology and
// delivers a drop-free rate in full, whatever its burstiness.
func TestGeneratorProfiles(t *testing.T) {
	for _, p := range []loadgen.Profile{loadgen.MoonGenProfile(), loadgen.OSNTProfile(), loadgen.IPerfProfile()} {
		topo, err := New(BareMetal, WithGenerator(p.Name))
		if err != nil {
			t.Fatal(err)
		}
		point, err := topo.DirectRun(64, 20_000, 1)
		topo.Close()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if point.RxMpps < 0.019 || point.RxMpps > 0.021 {
			t.Errorf("%s: rx = %v", p.Name, point.RxMpps)
		}
	}
}

// TestReplayRunEmptyRecord: pcap.NewReader accepts a zero-length record.
// Replayed after a good frame, it must count as a bad packet at the router,
// not crash the run.
func TestReplayRunEmptyRecord(t *testing.T) {
	frame, err := defaultTemplate(64).Build()
	if err != nil {
		t.Fatal(err)
	}
	var capture bytes.Buffer
	w := pcap.NewWriter(&capture, 65535)
	for _, data := range [][]byte{frame, {}} {
		if err := w.WritePacket(pcap.Packet{Timestamp: time.Unix(0, 0), Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := pcap.NewReader(&capture)
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := r.ReadAll()
	if err != nil || len(pkts) != 2 || len(pkts[1].Data) != 0 {
		t.Fatalf("capture read back as %d records, %v", len(pkts), err)
	}
	topo, err := New(BareMetal)
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()
	// 10 packets per 1 ms tick, the two records alternating tick by tick.
	if _, err := topo.ReplayRun(pkts, 10_000, 1); err != nil {
		t.Fatal(err)
	}
	if st := topo.RouterStats(); st.Forwarded != 5000 || st.BadPacket != 5000 {
		t.Errorf("router stats = %+v, want 5000 forwarded and 5000 bad", st)
	}
}

// TestFailedBuildClosesTestbed: a topology whose data plane fails to build
// after its nodes exist (here: an unknown generator profile) must take
// their control-plane listeners down with it — every wire.Serve loop the
// build started is gone once New returns its error.
func TestFailedBuildClosesTestbed(t *testing.T) {
	serving := func() int {
		var stacks bytes.Buffer
		if err := pprof.Lookup("goroutine").WriteTo(&stacks, 2); err != nil {
			t.Fatal(err)
		}
		return strings.Count(stacks.String(), "pos/internal/wire.Serve(")
	}
	before := serving()
	topo, err := New(Virtual, WithGenerator("warp10"))
	if topo != nil || err == nil || !strings.Contains(err.Error(), "warp10") {
		t.Fatalf("New = %v, %v; want the unknown-profile error", topo, err)
	}
	for deadline := time.Now().Add(5 * time.Second); serving() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d control-plane listeners still serve after the failed build", serving()-before)
		}
	}
}

func TestMoonGenArgParsing(t *testing.T) {
	cfg, err := parseMoonGenArgs([]string{"--rate", "10000", "--size", "1500", "--time", "2"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.RatePPS != 10000 || cfg.frameSize != 1500 || cfg.Duration != 2*sim.Second {
		t.Errorf("cfg = %+v", cfg)
	}
	// moongen is what the command does with its arguments: parse, then
	// measure. Whichever half refuses, the invocation must fail — never
	// come back as a successful run that transmitted nothing.
	topo, err := New(BareMetal)
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()
	moongen := func(args []string) error {
		cfg, err := parseMoonGenArgs(args)
		if err != nil {
			return err
		}
		cfg.Template = topo.template(cfg.frameSize)
		_, err = topo.runMeasurement(cfg.RunConfig)
		return err
	}
	for _, bad := range [][]string{
		{},                                 // missing rate
		{"--rate"},                         // missing value
		{"--rate", "x"},                    // bad rate
		{"--rate", "-5"},                   // negative rate
		{"--rate", "NaN"},                  // not a rate
		{"--rate", "Inf"},                  // infinite rate
		{"--rate", "1e300"},                // per-tick train past int64
		{"--rate", "1", "--size", "x"},     // bad size
		{"--rate", "1", "--time", "0"},     // bad time
		{"--rate", "1", "--time", "NaN"},   // not a time
		{"--rate", "1", "--time", "Inf"},   // infinite time
		{"--rate", "1", "--time", "1e300"}, // past what a sim.Duration holds
		{"--rate", "1", "--bogus", "2"},    // unknown flag
	} {
		if err := moongen(bad); err == nil {
			t.Errorf("args %v accepted", bad)
		}
	}
	// A bad --time is refused by name, not passed on to surface as a
	// wrapped-around "non-positive duration".
	if _, err := parseMoonGenArgs([]string{"--rate", "1", "--time", "NaN"}); err == nil || !strings.Contains(err.Error(), "--time") {
		t.Errorf("--time NaN: err = %v, want one naming --time", err)
	}
}

func atof(s string) float64 {
	var f float64
	for _, c := range s {
		f = f*10 + float64(c-'0')
	}
	return f
}

func atoi(s string) int {
	n := 0
	for _, c := range s {
		n = n*10 + int(c-'0')
	}
	return n
}

func TestLatencyHistogramThroughWorkflow(t *testing.T) {
	// Extend the measurement script with the latency-CSV upload — the
	// full "throughput and latency data created by MoonGen" pipeline.
	topo, err := New(BareMetal)
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()
	store, err := results.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	exp := topo.Experiment(SweepConfig{Sizes: []int{64}, RatesPPS: []int{10_000, 100_000}, RuntimeSec: 1})
	exp.Hosts[0].Measurement = `pos_run moongen.log moongen --rate $pkt_rate --size $pkt_sz --time $runtime
pos_run latency.csv moongen_hist
pos_sync run_done 2
`
	if _, err := topo.Testbed.Runner().Run(context.Background(), exp, store); err != nil {
		t.Fatal(err)
	}
	ids, _ := store.ListExperiments("user", exp.Name)
	rec, err := store.OpenExperiment("user", exp.Name, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	lat, err := eval.LoadLatency(rec, topo.LoadGen, "latency.csv")
	if err != nil {
		t.Fatal(err)
	}
	if len(lat) != 2 {
		t.Fatalf("latency groups = %v", lat)
	}
	for combo, samples := range lat {
		if len(samples) == 0 {
			t.Errorf("%s: no samples", combo)
		}
		for _, s := range samples {
			if s <= 0 {
				t.Errorf("%s: non-positive latency %v", combo, s)
			}
		}
	}
	// Higher load produces higher median latency.
	med := func(key string) float64 {
		xs := append([]float64(nil), lat[key]...)
		sort.Float64s(xs)
		return xs[len(xs)/2]
	}
	low := med("pkt_rate=10000,pkt_sz=64")
	high := med("pkt_rate=100000,pkt_sz=64")
	if high <= low {
		t.Errorf("median latency did not grow with load: %.0f vs %.0f ns", low, high)
	}
}

func TestMoonGenHistFailsOnVpos(t *testing.T) {
	topo, err := New(Virtual)
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()
	store, err := results.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	exp := topo.Experiment(SweepConfig{Sizes: []int{64}, RatesPPS: []int{10_000}, RuntimeSec: 1})
	exp.Hosts[0].Measurement = `pos_run moongen.log moongen --rate $pkt_rate --size $pkt_sz --time $runtime
pos_run latency.csv moongen_hist
pos_sync run_done 2
`
	// The failing loadgen script never reaches its barrier, so the DuT
	// waits for the full barrier timeout; shorten it for the test.
	topo.Testbed.Service.BarrierTimeout = 200 * time.Millisecond
	runner := topo.Testbed.Runner()
	runner.ContinueOnRunFailure = true
	sum, err := runner.Run(context.Background(), exp, store)
	if err != nil {
		t.Fatal(err)
	}
	if sum.FailedRuns != 1 {
		t.Errorf("failed runs = %d — vpos latency collection must fail explicitly", sum.FailedRuns)
	}
}

// TestArtifactsByteIdenticalAcrossExecutions is the strongest repeatability
// statement: two full workflow executions on identically seeded testbeds
// produce byte-for-byte identical measurement artifacts.
func TestArtifactsByteIdenticalAcrossExecutions(t *testing.T) {
	collect := func() map[string][]byte {
		topo, err := New(Virtual, WithSeed(123))
		if err != nil {
			t.Fatal(err)
		}
		defer topo.Close()
		store, err := results.NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		sweep := SweepConfig{Sizes: []int{64, 1500}, RatesPPS: []int{20_000, 250_000}, RuntimeSec: 1}
		if _, err := topo.Testbed.Runner().Run(context.Background(), topo.Experiment(sweep), store); err != nil {
			t.Fatal(err)
		}
		ids, _ := store.ListExperiments("user", "linux-router-vpos")
		rec, err := store.OpenExperiment("user", "linux-router-vpos", ids[0])
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		runs, _ := rec.Runs()
		for _, run := range runs {
			arts, _ := rec.RunArtifacts(run)
			for _, a := range arts {
				parts := strings.SplitN(a, "/", 2)
				data, err := rec.ReadRunArtifact(run, parts[0], parts[1])
				if err != nil {
					t.Fatal(err)
				}
				out[fmt.Sprintf("run%d/%s", run, a)] = data
			}
		}
		return out
	}
	a, b := collect(), collect()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("artifact counts differ: %d vs %d", len(a), len(b))
	}
	for name, data := range a {
		if !bytes.Equal(data, b[name]) {
			t.Errorf("artifact %s differs between executions", name)
		}
	}
}

// TestOneSidedExecFaultDoesNotWaitOutBarrier: when only the load generator's
// measurement exec fails, the DuT waiting for it at run_done is released at
// once instead of after DefaultBarrierTimeout, and the run's error names the
// injected fault.
func TestOneSidedExecFaultDoesNotWaitOutBarrier(t *testing.T) {
	topo, err := New(BareMetal)
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()
	// Exec occurrence 1 is the setup script; 2 is the first measurement.
	topo.SetFaults(map[string]sim.FaultPlan{topo.LoadGen: {FailExecs: []int{2}}})
	store, err := results.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	exp := topo.Experiment(SweepConfig{Sizes: []int{64}, RatesPPS: []int{10_000, 20_000}, RuntimeSec: 1})
	start := time.Now()
	_, err = topo.Runner().Run(context.Background(), exp, store)
	if took := time.Since(start); took >= 2*time.Second {
		t.Errorf("faulted run took %v, want < 2s", took)
	}
	if err == nil || !strings.Contains(err.Error(), "injected exec fault") {
		t.Fatalf("err = %v, want the injected exec fault", err)
	}
}

// TestCampaignSurvivesFaultyReplica: one of three replicas is armed (via
// SetFaults) to fail every exec after its initial setup — measurements and
// clean-slate re-setups alike, on both of its nodes. The campaign retries
// its runs on the healthy replicas and still completes the full sweep with
// zero failed runs and a complete attempt history in the journal.
func TestCampaignSurvivesFaultyReplica(t *testing.T) {
	cfg := SweepConfig{
		Sizes:      []int{64, 1500},
		RatesPPS:   []int{10_000, 20_000, 30_000},
		RuntimeSec: 1,
	}
	topos, err := NewReplicas(Virtual, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range topos {
		defer topo.Close()
	}
	// Both nodes fail every measurement, as a replica whose testbed is
	// broken as a whole would. (A fault on one node alone ends the run as
	// quickly: the run aborts its barriers.) Exec occurrence 1 is each
	// node's initial setup script, which must succeed for the session to
	// come up at all.
	failing := map[string]sim.FaultPlan{}
	for _, node := range []string{topos[1].LoadGen, topos[1].DuT} {
		var occ []int
		for i := 2; i <= 60; i++ {
			occ = append(occ, i)
		}
		failing[node] = sim.FaultPlan{FailExecs: occ}
	}
	topos[1].SetFaults(failing)

	reps := Replicas(topos, cfg)
	store, err := results.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := &sched.Campaign{
		Replicas:        reps,
		MaxAttempts:     4,
		QuarantineAfter: 2,
	}
	sum, err := c.Run(context.Background(), store)
	if err != nil {
		t.Fatal(err)
	}
	if sum.TotalRuns != 6 || sum.FailedRuns != 0 || len(sum.Records) != 6 {
		t.Fatalf("summary = %+v", sum)
	}
	// replica1 dequeues at least one run and always fails it, so at least
	// one run must record a retry; and if anything was quarantined it can
	// only be the armed replica.
	retried := 0
	for _, rec := range sum.Records {
		if rec.Attempts > 1 {
			retried++
		}
	}
	if retried == 0 {
		t.Error("no run records a retry despite replica1 failing every exec")
	}
	for _, q := range sum.Quarantined {
		if q != "replica1" {
			t.Errorf("quarantined %q, only replica1 is faulty", q)
		}
	}

	ids, _ := store.ListExperiments("user", "linux-router-vpos")
	e, err := store.OpenExperiment("user", "linux-router-vpos", ids[0])
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 6; run++ {
		if _, err := e.ReadRunMeta(run); err != nil {
			t.Errorf("run %d metadata: %v", run, err)
		}
		logData, err := e.ReadRunArtifact(run, "vriga", "moongen.log")
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if _, err := moonparse.ParseBytes(logData); err != nil {
			t.Errorf("run %d: parse: %v", run, err)
		}
	}
	// The attempt history is the journal: each run's highest journaled
	// attempt is the summary's attempt count.
	evs, err := eventlog.Replay(filepath.Join(e.Dir(), "events"))
	if err != nil {
		t.Fatal(err)
	}
	journaled := map[int]int{}
	for _, ev := range evs {
		if ev.Run != eventlog.NoRun {
			journaled[ev.Run] = max(journaled[ev.Run], ev.Attempt, 1)
		}
	}
	for _, rec := range sum.Records {
		if journaled[rec.Run] != rec.Attempts {
			t.Errorf("run %d: journal shows %d attempt(s), summary %d", rec.Run, journaled[rec.Run], rec.Attempts)
		}
	}
}
