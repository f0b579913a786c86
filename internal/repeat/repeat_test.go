package repeat

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pos/internal/casestudy"
	"pos/internal/core"
	"pos/internal/eval"
	"pos/internal/results"
)

func smallSweep() casestudy.SweepConfig {
	return casestudy.SweepConfig{
		Sizes:      []int{64},
		RatesPPS:   []int{10_000, 100_000},
		RuntimeSec: 1,
	}
}

// runs executes exp on topo into store, one new directory per execution.
func runs(topo *casestudy.Topology, exp *core.Experiment, store *results.Store) func(context.Context) (*core.Summary, error) {
	return func(ctx context.Context) (*core.Summary, error) { return topo.Testbed.Runner().Run(ctx, exp, store) }
}

func TestBareMetalIsIdenticallyRepeatable(t *testing.T) {
	topo, err := casestudy.New(casestudy.BareMetal)
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()
	store, err := results.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(context.Background(), runs(topo, topo.Experiment(smallSweep()), store),
		Config{Repetitions: 3, Node: topo.LoadGen, Artifact: "moongen.log"})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Identical {
		t.Errorf("deterministic testbed not identically repeatable: %+v", rep)
	}
	if rep.MaxRelDev != 0 {
		t.Errorf("max deviation = %v", rep.MaxRelDev)
	}
	if len(rep.Deviations) != 2 {
		t.Errorf("deviations = %d, want one per combination", len(rep.Deviations))
	}
	out := string(rep.Render())
	if !strings.Contains(out, "IDENTICAL") || !strings.Contains(out, "pkt_rate=10000") {
		t.Errorf("render = %q", out)
	}
}

func TestOverloadedVirtualDeviates(t *testing.T) {
	// The VM redraws its capacity jitter as virtual time advances, so
	// back-to-back repetitions of an overloaded run differ — exactly the
	// instability the paper shows in Fig. 3b.
	topo, err := casestudy.New(casestudy.Virtual, casestudy.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()
	store, err := results.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sweep := casestudy.SweepConfig{Sizes: []int{64}, RatesPPS: []int{250_000}, RuntimeSec: 1}
	rep, err := Verify(context.Background(), runs(topo, topo.Experiment(sweep), store),
		Config{Repetitions: 3, Node: topo.LoadGen, Artifact: "moongen.log"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Identical {
		t.Error("overloaded vpos reported as identical — jitter lost")
	}
	if rep.MaxRelDev <= 0 || rep.MaxRelDev > 0.5 {
		t.Errorf("max deviation = %v, want small but non-zero", rep.MaxRelDev)
	}
	if !strings.Contains(string(rep.Render()), "max relative deviation") {
		t.Errorf("render = %q", rep.Render())
	}
}

func TestVerifyValidation(t *testing.T) {
	topo, err := casestudy.New(casestudy.BareMetal)
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()
	store, _ := results.NewStore(t.TempDir())
	execute := runs(topo, topo.Experiment(smallSweep()), store)
	if _, err := Verify(context.Background(), execute, Config{Repetitions: 1, Node: "a", Artifact: "b"}); err == nil {
		t.Error("accepted one repetition")
	}
	if _, err := Verify(context.Background(), execute, Config{Repetitions: 2}); err == nil {
		t.Error("accepted empty node/artifact")
	}
	// Wrong artifact name: no comparable runs.
	if _, err := Verify(context.Background(), execute, Config{Repetitions: 2, Node: topo.LoadGen, Artifact: "nope.log"}); err == nil {
		t.Error("accepted missing artifact")
	}
}

func TestCustomMetric(t *testing.T) {
	topo, err := casestudy.New(casestudy.BareMetal)
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()
	store, _ := results.NewStore(t.TempDir())
	// Compare TX instead of RX.
	rep, err := Verify(context.Background(), runs(topo, topo.Experiment(smallSweep()), store),
		Config{
			Repetitions: 2, Node: topo.LoadGen, Artifact: "moongen.log",
			Metric: func(r eval.RunData) (float64, bool) {
				if r.Report == nil {
					return 0, false
				}
				return r.Report.TxMpps(), true
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Identical {
		t.Errorf("TX not repeatable: %+v", rep)
	}
}

func TestFailedRunsExcluded(t *testing.T) {
	// Verify errors out when an execution produces nothing comparable;
	// emulate by a metric that rejects everything.
	topo, err := casestudy.New(casestudy.BareMetal)
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()
	store, _ := results.NewStore(t.TempDir())
	_, err = Verify(context.Background(), runs(topo, topo.Experiment(smallSweep()), store),
		Config{
			Repetitions: 2, Node: topo.LoadGen, Artifact: "moongen.log",
			Metric: func(eval.RunData) (float64, bool) { return 0, false },
		})
	if err == nil {
		t.Error("no-comparable-runs execution accepted")
	}
}

// A campaign file repeats as posctl run runs it, into a store per
// execution: its replicas, and a pinned epoch, which names every execution's
// directory the same.
func TestVerifyLaunchesSpec(t *testing.T) {
	for _, tc := range []struct{ spec, want string }{
		{"replicas: 2\n", "experiment/campaign.json"}, // written by a campaign of replicas only
		{"epoch: 2021-10-12T11:20:32Z\n", "experiment/campaign.yml"},
	} {
		spec, err := casestudy.ParseSpec([]byte(tc.spec + "sizes: [64]\nrates: [10000, 100000]\n"))
		if err != nil {
			t.Fatal(err)
		}
		var dirs []string
		execute := func(ctx context.Context) (*core.Summary, error) {
			store, err := results.NewStore(t.TempDir())
			if err != nil {
				return nil, err
			}
			sum, err := casestudy.Launch(ctx, spec, nil, store, nil)
			if err == nil {
				dirs = append(dirs, sum.ResultsDir)
			}
			return sum, err
		}
		rep, err := Verify(context.Background(), execute, Config{Repetitions: 2, Node: casestudy.LoadGenNode, Artifact: "moongen.log"})
		if err != nil {
			t.Fatalf("%q: %v", tc.spec, err)
		}
		if !rep.Identical || len(rep.Deviations) != 2 || rep.Experiment != "linux-router-pos" {
			t.Errorf("%q: report = %+v", tc.spec, rep)
		}
		if len(dirs) != 2 {
			t.Fatalf("%q: %d executions recorded, want 2", tc.spec, len(dirs))
		}
		for _, dir := range dirs {
			if _, err := os.Stat(filepath.Join(dir, filepath.FromSlash(tc.want))); err != nil {
				t.Errorf("%q: %v", tc.spec, err)
			}
		}
		if pinned := spec.Epoch != ""; pinned != (filepath.Base(dirs[0]) == filepath.Base(dirs[1])) {
			t.Errorf("%q: executions recorded as %s and %s", tc.spec, filepath.Base(dirs[0]), filepath.Base(dirs[1]))
		}
	}
}
