// Linux-router case study (paper Sec. 5 / Appendix A): run the full 60-run
// sweep on both platforms — pos (bare metal) and vpos (virtual clone) —
// generate the Fig. 3 throughput plots in SVG/TeX/CSV, and publish each
// experiment as an artifact bundle with a generated website.
//
// Usage:
//
//	linuxrouter [-results DIR] [-quick]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"pos/internal/casestudy"
	"pos/internal/eval"
	"pos/internal/eventlog"
	"pos/internal/plot"
	"pos/internal/publish"
	"pos/internal/results"
)

func main() {
	log.SetFlags(0)
	resultsDir := flag.String("results", "", "results root (default: temp dir)")
	quick := flag.Bool("quick", false, "run a reduced sweep (2x5 runs per platform)")
	flag.Parse()

	dir := *resultsDir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "pos-linuxrouter-*")
		if err != nil {
			log.Fatal(err)
		}
	}
	store, err := results.NewStore(dir)
	if err != nil {
		log.Fatal(err)
	}

	sweep := casestudy.PaperSweep()
	if *quick {
		sweep.RatesPPS = []int{10_000, 50_000, 100_000, 200_000, 300_000}
		sweep.RuntimeSec = 1
	}

	for _, flavor := range []casestudy.Flavor{casestudy.BareMetal, casestudy.Virtual} {
		if err := runPlatform(store, flavor, sweep); err != nil {
			log.Fatalf("%s: %v", flavor, err)
		}
	}
	fmt.Println("\nall artifacts under", dir)
}

func runPlatform(store *results.Store, flavor casestudy.Flavor, sweep casestudy.SweepConfig) error {
	fmt.Printf("\n=== platform %s ===\n", flavor)
	topo, err := casestudy.New(flavor, casestudy.WithSeed(1))
	if err != nil {
		return err
	}
	defer topo.Close()

	exp := topo.Experiment(sweep)
	if flavor == casestudy.BareMetal {
		// On hardware, also collect MoonGen's latency histograms —
		// vpos cannot (no hardware timestamps), so its scripts stay
		// throughput-only, exactly like the paper's appendix.
		exp.Hosts[0].Measurement = `echo run $RUN rate=$pkt_rate size=$pkt_sz
pos_run moongen.log moongen --rate $pkt_rate --size $pkt_sz --time $runtime
pos_run latency.csv moongen_hist
pos_sync run_done 2
`
	}
	// The event pipeline is the execution record: the progress bar watches
	// it, and the experiment journals it under events/.
	runner := topo.Testbed.Runner()
	runner.Events = eventlog.NewPipeline()
	stop := runner.Events.Watch(0, func(ev eventlog.Event) {
		if ev.Typ == "progress" && ev.TotalRuns > 0 {
			// The paper's progress bar, in spirit.
			fmt.Printf("\r  [%-30s] %d/%d", bar(ev.Run+1, ev.TotalRuns, 30), ev.Run+1, ev.TotalRuns)
		}
	})
	sum, err := runner.Run(context.Background(), exp, store)
	stop()
	if err != nil {
		return err
	}
	fmt.Printf("\n  %d runs, %d failed\n", sum.TotalRuns, sum.FailedRuns)

	// Evaluation phase: build the Fig. 3 plot from the collected logs.
	ids, err := store.ListExperiments(exp.User, exp.Name)
	if err != nil {
		return err
	}
	rec, err := store.OpenExperiment(exp.User, exp.Name, ids[len(ids)-1])
	if err != nil {
		return err
	}
	runs, err := eval.LoadRuns(rec, topo.LoadGen, "moongen.log")
	if err != nil {
		return err
	}
	series, err := eval.ThroughputSeries(runs, "pkt_sz", "pkt_rate", 1e-6)
	if err != nil {
		return err
	}
	title := "Linux router forwarding (" + string(flavor) + ")"
	fig := plot.Throughput(title, series)
	for name, data := range plot.ExportNamed("figures/throughput", fig) {
		if err := rec.AddExperimentArtifact(name, data); err != nil {
			return err
		}
		fmt.Println("  wrote", filepath.Join(rec.Dir(), name))
	}
	// Latency plots on hardware (vpos has no latency artifacts).
	if lat, err := eval.LoadLatency(rec, topo.LoadGen, "latency.csv"); err == nil && len(lat) > 0 {
		cdf := plot.LatencyCDF("Forwarding latency ("+string(flavor)+")", lat)
		for name, data := range plot.ExportNamed("figures/latency-cdf", cdf) {
			if err := rec.AddExperimentArtifact(name, data); err != nil {
				return err
			}
		}
		fmt.Printf("  wrote latency CDFs for %d combinations\n", len(lat))
	}
	// Artifact evaluation before release.
	check, err := publish.Check(rec)
	if err != nil {
		return err
	}
	if !check.OK() {
		return fmt.Errorf("artifact incomplete:\n%s", check.Render())
	}
	fmt.Printf("  artifact check: %d runs, publishable\n", check.RunsChecked)

	// Publication phase: website + archive.
	archive := filepath.Join(rec.Dir(), "..", exp.Name+"-"+rec.ID()+".tar.gz")
	manifest, err := publish.Release(rec, exp.User, exp.Name, archive)
	if err != nil {
		return err
	}
	fmt.Printf("  published %d files (%d runs) to %s\n", len(manifest.Files), manifest.Runs, archive)
	return nil
}

func bar(done, total, width int) string {
	n := done * width / total
	out := make([]byte, width)
	for i := range out {
		if i < n {
			out[i] = '='
		} else {
			out[i] = ' '
		}
	}
	return string(out)
}
