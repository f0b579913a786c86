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

	"pos"
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
	store, err := pos.NewResultsStore(dir)
	if err != nil {
		log.Fatal(err)
	}

	sweep := pos.PaperSweep()
	if *quick {
		sweep.RatesPPS = []int{10_000, 50_000, 100_000, 200_000, 300_000}
		sweep.RuntimeSec = 1
	}

	for _, flavor := range []pos.Flavor{pos.BareMetal, pos.Virtual} {
		if err := runPlatform(store, flavor, sweep); err != nil {
			log.Fatalf("%s: %v", flavor, err)
		}
	}
	fmt.Println("\nall artifacts under", dir)
}

func runPlatform(store *pos.ResultsStore, flavor pos.Flavor, sweep pos.SweepConfig) error {
	fmt.Printf("\n=== platform %s ===\n", flavor)
	topo, err := pos.NewCaseStudy(flavor, pos.WithSeed(1))
	if err != nil {
		return err
	}
	defer topo.Close()

	exp := topo.Experiment(sweep)
	if flavor == pos.BareMetal {
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
	runner.Events = pos.NewEventPipeline()
	stop := runner.Events.Watch(0, func(ev pos.ExperimentEvent) {
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
	runs, err := pos.LoadRuns(rec, topo.LoadGen, "moongen.log")
	if err != nil {
		return err
	}
	series, err := pos.ThroughputSeries(runs, "pkt_sz", "pkt_rate", 1e-6)
	if err != nil {
		return err
	}
	title := "Linux router forwarding (" + string(flavor) + ")"
	fig := pos.ThroughputFigure(title, series)
	for name, data := range pos.ExportFigure("figures/throughput", fig) {
		if err := rec.AddExperimentArtifact(name, data); err != nil {
			return err
		}
		fmt.Println("  wrote", filepath.Join(rec.Dir(), name))
	}
	// Latency plots on hardware (vpos has no latency artifacts).
	if lat, err := pos.LoadLatency(rec, topo.LoadGen, "latency.csv"); err == nil && len(lat) > 0 {
		cdf := pos.LatencyCDFFigure("Forwarding latency ("+string(flavor)+")", lat)
		for name, data := range pos.ExportFigure("figures/latency-cdf", cdf) {
			if err := rec.AddExperimentArtifact(name, data); err != nil {
				return err
			}
		}
		fmt.Printf("  wrote latency CDFs for %d combinations\n", len(lat))
	}
	// Artifact evaluation before release.
	check, err := pos.CheckArtifact(rec)
	if err != nil {
		return err
	}
	if !check.OK() {
		return fmt.Errorf("artifact incomplete:\n%s", check.Render())
	}
	fmt.Printf("  artifact check: %d runs, publishable\n", check.RunsChecked)

	// Publication phase: website + archive.
	archive := filepath.Join(rec.Dir(), "..", exp.Name+"-"+rec.ID()+".tar.gz")
	manifest, err := pos.Release(rec, exp.User, exp.Name, archive)
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
