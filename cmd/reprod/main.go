// Command reprod regenerates every table and figure of the paper's
// evaluation:
//
//	reprod -fig 3a      Fig. 3a — bare-metal (pos) Linux-router throughput
//	reprod -fig 3b      Fig. 3b — virtualized (vpos) Linux-router throughput
//	reprod -table 1     Table 1 — testbed/methodology comparison
//	reprod -appendix    Appendix A — the full 60-run workflow incl. plots
//	                    and publication (writes artifacts to -results)
//	reprod -all         everything above
//
// Figure sweeps print the series as aligned columns (offered vs. received
// Mpps per packet size) so the plateaus and crossovers of the published
// figures are directly visible in the terminal; -appendix additionally
// renders the SVG/TeX/CSV figures and the artifact bundle.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"

	"pos"
)

func main() {
	log.SetFlags(0)
	fig := flag.String("fig", "", "figure to reproduce: 3a or 3b")
	table := flag.Int("table", 0, "table to reproduce: 1")
	appendix := flag.Bool("appendix", false, "run the Appendix A experiment end to end")
	robustness := flag.Bool("robustness", false, "packet-size sensitivity sweep (the robustness concern of Sec. 2)")
	reps := flag.Int("reps", 1, "repetitions per figure sweep point (mean ± stddev when > 1)")
	all := flag.Bool("all", false, "reproduce everything")
	resultsDir := flag.String("results", "", "results root for -appendix (default: temp dir)")
	seed := flag.Uint64("seed", 1, "vpos jitter seed")
	flag.Parse()

	ran := false
	if *all || *fig == "3a" {
		ran = true
		if err := figure3(pos.BareMetal, *seed, *reps); err != nil {
			log.Fatal(err)
		}
	}
	if *all || *fig == "3b" {
		ran = true
		if err := figure3(pos.Virtual, *seed, *reps); err != nil {
			log.Fatal(err)
		}
	}
	if *all || *table == 1 {
		ran = true
		fmt.Println("\nTable 1: Comparison between testbeds")
		if err := pos.WriteComparisonTable(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
	if *all || *appendix {
		ran = true
		if err := runAppendix(*resultsDir, *seed); err != nil {
			log.Fatal(err)
		}
	}
	if *all || *robustness {
		ran = true
		if err := runRobustness(); err != nil {
			log.Fatal(err)
		}
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

// figure3 sweeps the platform and prints the figure's series. The bare-metal
// sweep uses the extended rate axis so both plateaus (CPU limit, NIC line
// rate) are visible; the vpos sweep uses the paper's 10k–300k axis.
func figure3(flavor pos.Flavor, seed uint64, reps int) error {
	name, sweep := "3a", pos.ExtendedSweep()
	if flavor == pos.Virtual {
		name, sweep = "3b", pos.PaperSweep()
	}
	if reps < 1 {
		reps = 1
	}
	fmt.Printf("\nFigure %s: Linux router forwarding performance on %s", name, flavor)
	if reps > 1 {
		fmt.Printf(" (mean ± sd over %d repetitions)", reps)
	}
	fmt.Println()
	topo, err := pos.NewCaseStudy(flavor, pos.WithSeed(seed))
	if err != nil {
		return err
	}
	defer topo.Close()

	fmt.Printf("%-14s %20s %20s\n", "offered [Mpps]", "rx 64B [Mpps]", "rx 1500B [Mpps]")
	maxRx := map[int]float64{}
	for _, rate := range sweep.RatesPPS {
		mean := map[int]float64{}
		sd := map[int]float64{}
		for _, size := range sweep.Sizes {
			var vals []float64
			for r := 0; r < reps; r++ {
				p, err := topo.DirectRun(size, float64(rate), sweep.RuntimeSec)
				if err != nil {
					return err
				}
				vals = append(vals, p.RxMpps)
			}
			var sum float64
			for _, v := range vals {
				sum += v
			}
			mean[size] = sum / float64(len(vals))
			if len(vals) > 1 {
				var sq float64
				for _, v := range vals {
					d := v - mean[size]
					sq += d * d
				}
				sd[size] = math.Sqrt(sq / float64(len(vals)-1))
			}
			if mean[size] > maxRx[size] {
				maxRx[size] = mean[size]
			}
		}
		if reps > 1 {
			fmt.Printf("%-14.3f %12.4f ±%.4f %12.4f ±%.4f\n",
				float64(rate)/1e6, mean[64], sd[64], mean[1500], sd[1500])
		} else {
			fmt.Printf("%-14.3f %20.4f %20.4f\n", float64(rate)/1e6, mean[64], mean[1500])
		}
	}
	fmt.Printf("max forwarding: 64B %.3f Mpps, 1500B %.3f Mpps", maxRx[64], maxRx[1500])
	switch flavor {
	case pos.BareMetal:
		fmt.Printf("   (paper: 1.75 / 0.80)\n")
	default:
		fmt.Printf("   (paper: drop-free <= 0.04, unstable beyond)\n")
	}
	return nil
}

// runRobustness sweeps the packet size at a fixed overload, exposing the
// crossover between the CPU-bound regime (below ~694 B the 1.75 Mpps
// forwarding limit governs) and the bandwidth-bound regime (above it, the
// 10 Gbit/s line rate governs). This is the "low robustness" concern the
// paper cites from Zilberman's NDP artifact evaluation: a small change in
// the investigated packet size moves the system into a different regime.
func runRobustness() error {
	fmt.Println("\nRobustness: packet-size sensitivity of the bare-metal Linux router at 1.8 Mpps offered")
	topo, err := pos.NewCaseStudy(pos.BareMetal)
	if err != nil {
		return err
	}
	defer topo.Close()
	fmt.Printf("%-10s %14s %16s %10s\n", "size [B]", "rx [Mpps]", "line rate [Mpps]", "regime")
	for _, size := range []int{64, 128, 256, 512, 640, 680, 700, 720, 768, 1024, 1280, 1500} {
		p, err := topo.DirectRun(size, 1_800_000, 1)
		if err != nil {
			return err
		}
		line := pos.LineRatePPS(10e9, size) / 1e6
		regime := "CPU-bound"
		if line < 1.75 {
			regime = "NIC-bound"
		}
		fmt.Printf("%-10d %14.4f %16.4f %10s\n", size, p.RxMpps, line, regime)
	}
	fmt.Println("crossover at ~694 B: the same experiment, a slightly different packet size, a different bottleneck")
	return nil
}

// runAppendix executes the full Appendix A workflow on both platforms:
// 60 measurement runs each, evaluation plots, and publication bundles.
func runAppendix(dir string, seed uint64) error {
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "pos-appendix-*")
		if err != nil {
			return err
		}
	}
	store, err := pos.NewResultsStore(dir)
	if err != nil {
		return err
	}
	for _, flavor := range []pos.Flavor{pos.BareMetal, pos.Virtual} {
		fmt.Printf("\nAppendix A on %s (60 runs)\n", flavor)
		topo, err := pos.NewCaseStudy(flavor, pos.WithSeed(seed))
		if err != nil {
			return err
		}
		exp := topo.Experiment(pos.PaperSweep())
		runner := topo.Testbed.Runner()
		runner.Events = pos.NewEventPipeline()
		stop := runner.Events.Watch(0, func(ev pos.ExperimentEvent) {
			if ev.Typ == "progress" && ev.TotalRuns > 0 {
				fmt.Printf("\r  run %2d/%d (%s)          ", ev.Run+1, ev.TotalRuns, ev.Message)
			}
		})
		sum, err := runner.Run(context.Background(), exp, store)
		stop()
		if err != nil {
			topo.Close()
			return err
		}
		fmt.Printf("\n  %d runs complete, %d failed\n", sum.TotalRuns, sum.FailedRuns)

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
		figTitle := "Linux router forwarding (" + string(flavor) + ")"
		for name, data := range pos.ExportFigure("figures/throughput", pos.ThroughputFigure(figTitle, series)) {
			if err := rec.AddExperimentArtifact(name, data); err != nil {
				return err
			}
		}
		archive := filepath.Join(dir, exp.Name+"-"+rec.ID()+".tar.gz")
		m, err := pos.Release(rec, exp.User, exp.Name, archive)
		if err != nil {
			return err
		}
		fmt.Printf("  published %d artifacts -> %s\n", len(m.Files), archive)
		topo.Close()
	}
	fmt.Println("\nall appendix artifacts under", dir)
	return nil
}
