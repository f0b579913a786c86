package pos_test

import (
	"context"
	"strings"
	"testing"

	"pos/internal/casestudy"
	"pos/internal/eval"
	"pos/internal/plot"
	"pos/internal/publish"
	"pos/internal/results"
)

// TestPublicAPIWorkflow drives the complete pipeline a user of the toolchain
// walks: run a sweep, load and plot its results, publish the experiment.
func TestPublicAPIWorkflow(t *testing.T) {
	topo, err := casestudy.New(casestudy.BareMetal)
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()
	store, err := results.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	exp := topo.Experiment(casestudy.SweepConfig{
		Sizes:      []int{64, 1500},
		RatesPPS:   []int{10_000, 300_000},
		RuntimeSec: 1,
	})
	sum, err := topo.Testbed.Runner().Run(context.Background(), exp, store)
	if err != nil {
		t.Fatal(err)
	}
	if sum.TotalRuns != 4 || sum.FailedRuns != 0 {
		t.Fatalf("summary = %+v", sum)
	}

	ids, err := store.ListExperiments(exp.User, exp.Name)
	if err != nil || len(ids) != 1 {
		t.Fatalf("experiments = %v, %v", ids, err)
	}
	rec, err := store.OpenExperiment(exp.User, exp.Name, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	runs, err := eval.LoadRuns(rec, topo.LoadGen, "moongen.log")
	if err != nil {
		t.Fatal(err)
	}
	series, err := eval.ThroughputSeries(runs, "pkt_sz", "pkt_rate", 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %+v", series)
	}
	fig := plot.Throughput("test", series)
	files := plot.ExportNamed("fig", fig)
	if len(files) != 3 || !strings.Contains(string(files["fig.svg"]), "<svg") {
		t.Errorf("export = %v", files)
	}
	for name, data := range files {
		if err := rec.AddExperimentArtifact("figures/"+name, data); err != nil {
			t.Fatal(err)
		}
	}
	m, err := publish.Release(rec, exp.User, exp.Name, t.TempDir()+"/bundle.tar.gz")
	if err != nil {
		t.Fatal(err)
	}
	if m.Runs != 4 {
		t.Errorf("manifest = %+v", m)
	}
}

// TestReproducibility is the property the whole system exists for: two
// executions of the same experiment definition on identically seeded
// testbeds yield identical measurement results.
func TestReproducibility(t *testing.T) {
	measure := func() []float64 {
		topo, err := casestudy.New(casestudy.Virtual, casestudy.WithSeed(99))
		if err != nil {
			t.Fatal(err)
		}
		defer topo.Close()
		var out []float64
		for _, rate := range []float64{20_000, 100_000, 250_000} {
			for _, size := range []int{64, 1500} {
				p, err := topo.DirectRun(size, rate, 1)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, p.RxMpps)
			}
		}
		return out
	}
	a, b := measure(), measure()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run %d differs: %v vs %v — reproducibility broken", i, a[i], b[i])
		}
	}
}

// TestSeedChangesVirtualResults: different seeds model different physical
// conditions; overloaded vpos results must differ while drop-free results
// stay equal.
func TestSeedChangesVirtualResults(t *testing.T) {
	run := func(seed uint64, rate float64) float64 {
		topo, err := casestudy.New(casestudy.Virtual, casestudy.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		defer topo.Close()
		p, err := topo.DirectRun(64, rate, 1)
		if err != nil {
			t.Fatal(err)
		}
		return p.RxMpps
	}
	if run(1, 200_000) == run(2, 200_000) {
		t.Error("overloaded vpos identical across seeds — jitter not applied")
	}
	if run(1, 20_000) != run(2, 20_000) {
		t.Error("drop-free vpos differs across seeds — determinism broken below capacity")
	}
}
