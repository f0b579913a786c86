package pos_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"pos/internal/casestudy"
	"pos/internal/compare"
	"pos/internal/results"
	"pos/internal/telemetry"
)

// The batched cut-through data plane is a pure performance optimization: its
// contract is byte-identical results against the scalar event-per-hop engine
// it replaced. These differential tests hold it to that contract across the
// paper's workloads — Fig. 3a (bare metal), Fig. 3b (seeded virtual), the
// latency CDF samples, the full Appendix A workflow artifact tree — on the
// two-node rig and on the multi-hop router chain, plus the parallel replica
// sweep against its sequential twin.

// builder constructs one topology; the differentials call it twice and turn
// the second copy into the scalar oracle with scalarOracle.
type builder func() (*casestudy.Topology, error)

func twoNode(flavor casestudy.Flavor, opts ...casestudy.Option) builder {
	return func() (*casestudy.Topology, error) { return casestudy.New(flavor, opts...) }
}

func chainOf(flavor casestudy.Flavor, cfg casestudy.ChainConfig, opts ...casestudy.Option) builder {
	return func() (*casestudy.Topology, error) { return casestudy.NewChain(flavor, cfg, opts...) }
}

// scalarOracle switches a freshly built topology — batched, like every rig
// topo.Build hands back — to the scalar event-per-hop engine.
func scalarOracle(topo *casestudy.Topology) *casestudy.Topology {
	topo.Engine.SetBatching(false)
	return topo
}

// The chains the differentials and the pinned digests run on: four clusters
// of two bare-metal routers, and two clusters of two seeded virtual ones.
var (
	bareMetalChain = casestudy.ChainConfig{Routers: 8, Clusters: 4}
	virtualChain   = casestudy.ChainConfig{Routers: 4, Clusters: 2}
)

// enginePair builds the batched topology and its scalar oracle.
func enginePair(t *testing.T, build builder) (batched, scalar *casestudy.Topology) {
	t.Helper()
	batched, err := build()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(batched.Close)
	scalar, err = build()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(scalar.Close)
	return batched, scalarOracle(scalar)
}

// diffSweep runs the same measurement points on both topologies and fails on
// the first field that differs.
func diffSweep(t *testing.T, batched, scalar *casestudy.Topology, sizes []int, rates []float64) {
	t.Helper()
	for _, size := range sizes {
		for _, rate := range rates {
			got, err := batched.DirectRun(size, rate, 1)
			if err != nil {
				t.Fatal(err)
			}
			want, err := scalar.DirectRun(size, rate, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("size=%d rate=%g: batched %+v != scalar %+v", size, rate, got, want)
			}
		}
	}
	// Cut-through delivers synchronously what the oracle schedules hop by
	// hop, so a real oracle executes more events.
	if b, s := batched.Engine.Steps(), scalar.Engine.Steps(); s <= b {
		t.Fatalf("scalar oracle executed %d events, batched engine %d: the oracle is not scalar", s, b)
	}
}

// diffLatencySamples compares the raw latency sample streams — order and
// value — of one 64 B run and returns them.
func diffLatencySamples(t *testing.T, batched, scalar *casestudy.Topology) []float64 {
	t.Helper()
	got, err := batched.LatencySamples(64, 150_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scalar.LatencySamples(64, 150_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("sample counts differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, got[i], want[i])
		}
	}
	return got
}

// diffWorkflowArtifacts executes the full pos workflow — control plane,
// measurement scripts, artifact uploads — on both engines with a pinned wall
// clock, then diffs the two experiment result trees byte for byte:
// metadata.json, moongen.log, router.stats, every run directory.
func diffWorkflowArtifacts(t *testing.T, build builder, sweep casestudy.SweepConfig) {
	t.Helper()
	epoch := time.Date(2021, 10, 12, 11, 20, 32, 230471000, time.UTC)
	// Span archiving is off for this test: spans.json records the order in
	// which concurrent per-host goroutines opened spans — host scheduling,
	// not measurement results — so it is legitimately run-to-run volatile.
	telemetry.Default.SetEnabled(false)
	defer telemetry.Default.SetEnabled(true)
	runTree := func(scalar bool) string {
		topo, err := build()
		if err != nil {
			t.Fatal(err)
		}
		defer topo.Close()
		if scalar {
			scalarOracle(topo)
		}
		store, err := results.NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		exp := topo.Experiment(sweep)
		runner := topo.Testbed.Runner()
		runner.Clock = func() time.Time { return epoch }
		if _, err := runner.Run(context.Background(), exp, store); err != nil {
			t.Fatal(err)
		}
		ids, err := store.ListExperiments(exp.User, exp.Name)
		if err != nil || len(ids) != 1 {
			t.Fatalf("experiments = %v, %v", ids, err)
		}
		rec, err := store.OpenExperiment(exp.User, exp.Name, ids[0])
		if err != nil {
			t.Fatal(err)
		}
		return rec.Dir()
	}
	batchedDir := runTree(false)
	scalarDir := runTree(true)
	diffs, err := compare.DiffExperiments(batchedDir, scalarDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diffs {
		t.Errorf("artifact differs: %s", d)
	}
}

// TestBatchedMatchesScalarFigure3a sweeps the bare-metal router (Fig. 3a:
// the 1.75 Mpps CPU plateau and the 1500 B line-rate ceiling) through both
// engines.
func TestBatchedMatchesScalarFigure3a(t *testing.T) {
	batched, scalar := enginePair(t, twoNode(casestudy.BareMetal))
	diffSweep(t, batched, scalar,
		[]int{64, 1500},
		[]float64{10_000, 150_000, 300_000, 1_000_000, 1_800_000, 2_200_000})
}

// TestBatchedMatchesScalarFigure3b sweeps the seeded virtual testbed
// (Fig. 3b): jittered links keep the scalar delivery path, the software
// clock adds timestamp noise, and overload sheds packets — all of it must
// still agree bit for bit.
func TestBatchedMatchesScalarFigure3b(t *testing.T) {
	batched, scalar := enginePair(t, twoNode(casestudy.Virtual, casestudy.WithSeed(7)))
	diffSweep(t, batched, scalar,
		[]int{64, 1500},
		[]float64{20_000, 120_000, 250_000, 400_000})
}

// TestBatchedMatchesScalarLatencySamples compares the raw latency sample
// streams behind the paper's latency CDF.
func TestBatchedMatchesScalarLatencySamples(t *testing.T) {
	batched, scalar := enginePair(t, twoNode(casestudy.BareMetal))
	diffLatencySamples(t, batched, scalar)
}

// TestBatchedMatchesScalarWorkflowArtifacts executes the Appendix A workflow
// end to end on both engines and diffs the result trees.
func TestBatchedMatchesScalarWorkflowArtifacts(t *testing.T) {
	diffWorkflowArtifacts(t, twoNode(casestudy.Virtual, casestudy.WithSeed(3)), casestudy.SweepConfig{
		Sizes:      []int{64, 1500},
		RatesPPS:   []int{10_000, 300_000},
		RuntimeSec: 1,
	})
}

// TestChainBatchedMatchesScalar sweeps the eight-router bare-metal chain —
// cut-through across nine links, four of them 2 ms trunks — and its scalar
// oracle through identical measurement points.
func TestChainBatchedMatchesScalar(t *testing.T) {
	batched, scalar := enginePair(t, chainOf(casestudy.BareMetal, bareMetalChain))
	diffSweep(t, batched, scalar,
		[]int{64, 1500},
		[]float64{10_000, 150_000, 300_000, 1_000_000, 1_800_000})
}

// TestChainBatchedMatchesScalarVirtual repeats the sweep on the seeded
// virtual platform: every router's own jitter model must replay identically
// on both engines.
func TestChainBatchedMatchesScalarVirtual(t *testing.T) {
	batched, scalar := enginePair(t, chainOf(casestudy.Virtual, virtualChain, casestudy.WithSeed(7)))
	diffSweep(t, batched, scalar, []int{64}, []float64{20_000, 120_000, 250_000})
}

// TestChainBatchedMatchesScalarLatencySamples compares the raw latency
// sample streams across the multi-hop path, and checks the trunks are really
// on it: no packet can cross four 2 ms trunks in under 8 ms.
func TestChainBatchedMatchesScalarLatencySamples(t *testing.T) {
	batched, scalar := enginePair(t, chainOf(casestudy.BareMetal, bareMetalChain))
	samples := diffLatencySamples(t, batched, scalar)
	trunks := float64(4 * 2 * time.Millisecond)
	for i, ns := range samples {
		if ns < trunks {
			t.Fatalf("sample %d is %v ns, below the %v ns the four trunks alone take", i, ns, trunks)
		}
	}
}

// TestChainBatchedMatchesScalarWorkflowArtifacts runs the full pos workflow
// against the virtual chain on both engines and diffs the result trees.
func TestChainBatchedMatchesScalarWorkflowArtifacts(t *testing.T) {
	diffWorkflowArtifacts(t, chainOf(casestudy.Virtual, virtualChain, casestudy.WithSeed(3)), casestudy.SweepConfig{
		Sizes:      []int{64},
		RatesPPS:   []int{10_000, 300_000},
		RuntimeSec: 1,
	})
}

// pinnedDigest is SHA-256 over fmt.Sprintf("%v") of a DirectRun sweep of
// one freshly built topology followed, with latency, by the raw latency
// samples of one more 64 B run on it.
func pinnedDigest(t *testing.T, build builder, sizes []int, rates []float64, latency bool) string {
	t.Helper()
	topo, err := build()
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()
	var points []casestudy.RunPoint
	for _, size := range sizes {
		for _, rate := range rates {
			pt, err := topo.DirectRun(size, rate, 1)
			if err != nil {
				t.Fatal(err)
			}
			points = append(points, pt)
		}
	}
	h := sha256.New()
	fmt.Fprintf(h, "%v", points)
	if latency {
		samples, err := topo.LatencySamples(64, 150_000, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(samples) == 0 {
			t.Fatal("no latency samples")
		}
		fmt.Fprintf(h, "%v", samples)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestChainPinnedDigests pins the chain's results to constants recorded at
// commit fc33186, when the same chains ran partitioned across four (bare
// metal) and two (virtual) engines under a shard synchronizer: the
// pinnedDigest of a sweep with, on bare metal, latency samples. The
// single-timeline chain must keep producing exactly those bytes.
func TestChainPinnedDigests(t *testing.T) {
	const (
		bareMetalWant = "e7c3d17f6909e33475986e2ba6129f41ad840805f4b97ee869e4f7c7c407448d"
		virtualWant   = "5d93d93e06cd9f6b5c880a83742b0ef4ae5be3db821df8fb9150c5dea3e680a8"
	)
	if got := pinnedDigest(t, chainOf(casestudy.BareMetal, bareMetalChain),
		[]int{64, 1500}, []float64{10_000, 150_000, 300_000, 1_000_000, 1_800_000}, true); got != bareMetalWant {
		t.Errorf("bare-metal chain digest %s, pinned %s", got, bareMetalWant)
	}
	if got := pinnedDigest(t, chainOf(casestudy.Virtual, virtualChain, casestudy.WithSeed(7)),
		[]int{64}, []float64{20_000, 120_000, 250_000}, false); got != virtualWant {
		t.Errorf("virtual chain digest %s, pinned %s", got, virtualWant)
	}
}

// TestRigPinnedDigests pins the two-node wirings the chain digests and the
// benchmark's golden digests leave uncovered — the switched ablation at two
// switch delays, the OSNT and iPerf generator profiles, the seeded virtual
// rig — to pinnedDigest constants recorded at commit 19cb761, when
// casestudy still cabled every rig by hand. The batched-vs-scalar
// differentials build both sides with one builder, so only a pin catches a
// wiring slip.
func TestRigPinnedDigests(t *testing.T) {
	sizes := []int{64, 1500}
	bareMetal := []float64{10_000, 150_000, 1_000_000, 1_800_000}
	virtual := []float64{20_000, 120_000, 250_000, 400_000}
	for _, row := range []struct {
		name    string
		build   builder
		rates   []float64
		latency bool
		want    string
	}{
		{"switch15ns", twoNode(casestudy.BareMetal, casestudy.WithSwitch(15*time.Nanosecond)), bareMetal, true,
			"8a1783a24400bd1fec29711944d38c0e3ca430db6da14ea9eca2ee5ef99fb44e"},
		{"switch300ns", twoNode(casestudy.BareMetal, casestudy.WithSwitch(300*time.Nanosecond)), bareMetal, true,
			"982e17a73d7e24e23d571f9bae7bbc5a44c863946b98d219326c4915ea1f0c50"},
		{"osnt", twoNode(casestudy.BareMetal, casestudy.WithGenerator("osnt")), bareMetal, true,
			"85332c9677536874ab8337e30f025de678a81cfa3e28450f02c860daf3175d78"},
		{"iperf", twoNode(casestudy.BareMetal, casestudy.WithGenerator("iperf")), bareMetal, false,
			"9910e507d9ae383681aa7e1ceaf0b7d917d9e54222e61a7fc9e483ecbde4649c"},
		{"virtual-seed7", twoNode(casestudy.Virtual, casestudy.WithSeed(7)), virtual, false,
			"a3852012514c7e901ca4f61b4afe06e09f990c2f72e417cc5ca058ddb2a04639"},
	} {
		if got := pinnedDigest(t, row.build, sizes, row.rates, row.latency); got != row.want {
			t.Errorf("%s digest %s, pinned %s", row.name, got, row.want)
		}
	}
}

// TestShardedSweepMatchesSequential runs the same sweep once through the
// parallel executor and once sequentially on identically built replicas,
// asserting point-for-point equality in campaign order. Eight points over
// three replicas: the deal does not come out even.
func TestShardedSweepMatchesSequential(t *testing.T) {
	cfg := casestudy.SweepConfig{
		Sizes:      []int{64, 1500},
		RatesPPS:   []int{20_000, 120_000, 250_000, 400_000},
		RuntimeSec: 1,
	}
	const n = 3
	build := func() []*casestudy.Topology {
		topos, err := casestudy.NewReplicas(casestudy.Virtual, n, casestudy.WithSeed(11))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			for _, topo := range topos {
				topo.Close()
			}
		})
		return topos
	}
	got, err := casestudy.ShardedSweep(build(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Sequential oracle: each replica runs its round-robin subsequence of
	// the campaign-order point list, exactly as ShardedSweep deals it.
	var pts [][2]float64
	for _, size := range cfg.Sizes {
		for _, rate := range cfg.RatesPPS {
			pts = append(pts, [2]float64{float64(size), float64(rate)})
		}
	}
	if len(pts)%n == 0 {
		t.Fatalf("%d points divide evenly over %d replicas; the test wants a remainder", len(pts), n)
	}
	want := make([]casestudy.RunPoint, len(pts))
	for i, topo := range build() {
		for p := i; p < len(pts); p += n {
			pt, err := topo.DirectRun(int(pts[p][0]), pts[p][1], cfg.RuntimeSec)
			if err != nil {
				t.Fatal(err)
			}
			want[p] = pt
		}
	}
	if len(got) != len(want) {
		t.Fatalf("point counts differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("point %d differs: sharded %+v != sequential %+v", i, got[i], want[i])
		}
	}
}

// TestShardedSweepReportsInvalidPoint: a sweep holding a frame size no
// template can build (20 B is below the headers) comes back as that error —
// no hang, no panic, and every replica goroutine gone by the time
// ShardedSweep returns.
func TestShardedSweepReportsInvalidPoint(t *testing.T) {
	topos, err := casestudy.NewReplicas(casestudy.Virtual, 2, casestudy.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, topo := range topos {
			topo.Close()
		}
	}()
	points, err := casestudy.ShardedSweep(topos, casestudy.SweepConfig{
		Sizes:      []int{64, 20},
		RatesPPS:   []int{20_000, 120_000, 250_000},
		RuntimeSec: 1,
	})
	if err == nil || !strings.Contains(err.Error(), "frame size 20") {
		t.Fatalf("sweep with a 20 B frame returned %d points, err %v", len(points), err)
	}
	// The replica goroutines have all passed wg.Done; give their exit a
	// moment to show in the profile.
	var stacks bytes.Buffer
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		stacks.Reset()
		if err := pprof.Lookup("goroutine").WriteTo(&stacks, 1); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(stacks.String(), "casestudy.ShardedSweep") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("a sweep goroutine outlived ShardedSweep:\n%s", stacks.String())
		}
	}
}
