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
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"

	"pos/internal/casestudy"
	"pos/internal/compare"
	"pos/internal/eval"
	"pos/internal/eventlog"
	"pos/internal/packet"
	"pos/internal/plot"
	"pos/internal/publish"
	"pos/internal/results"
)

// errUsage reports a command line that names nothing to reproduce.
var errUsage = errors.New("reprod: nothing to reproduce")

func main() {
	log.SetFlags(0)
	switch err := run(os.Args[1:], os.Stdout); {
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil:
		log.Fatal(err)
	}
}

// run reproduces what args ask for, writing every table and figure to
// stdout. A command line that names nothing, or does not parse, is errUsage.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("reprod", flag.ContinueOnError)
	fig := fs.String("fig", "", "figure to reproduce: 3a or 3b")
	table := fs.Int("table", 0, "table to reproduce: 1")
	appendix := fs.Bool("appendix", false, "run the Appendix A experiment end to end")
	robustness := fs.Bool("robustness", false, "packet-size sensitivity sweep (the robustness concern of Sec. 2)")
	reps := fs.Int("reps", 1, "repetitions per figure sweep point (mean ± stddev when > 1)")
	all := fs.Bool("all", false, "reproduce everything")
	resultsDir := fs.String("results", "", "results root for -appendix (default: temp dir)")
	seed := fs.Uint64("seed", 1, "vpos jitter seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}

	ran := false
	if *all || *fig == "3a" {
		ran = true
		if err := figure3(stdout, casestudy.BareMetal, *seed, *reps); err != nil {
			return err
		}
	}
	if *all || *fig == "3b" {
		ran = true
		if err := figure3(stdout, casestudy.Virtual, *seed, *reps); err != nil {
			return err
		}
	}
	if *all || *table == 1 {
		ran = true
		fmt.Fprintln(stdout, "\nTable 1: Comparison between testbeds")
		if err := compare.Write(stdout); err != nil {
			return err
		}
	}
	if *all || *appendix {
		ran = true
		if err := runAppendix(stdout, *resultsDir, *seed); err != nil {
			return err
		}
	}
	if *all || *robustness {
		ran = true
		if err := runRobustness(stdout); err != nil {
			return err
		}
	}
	if !ran {
		fs.Usage()
		return errUsage
	}
	return nil
}

// figure3 sweeps the platform and prints the figure's series. The bare-metal
// sweep uses the extended rate axis so both plateaus (CPU limit, NIC line
// rate) are visible; the vpos sweep uses the paper's 10k–300k axis.
func figure3(w io.Writer, flavor casestudy.Flavor, seed uint64, reps int) error {
	name, sweep := "3a", casestudy.ExtendedSweep()
	if flavor == casestudy.Virtual {
		name, sweep = "3b", casestudy.PaperSweep()
	}
	if reps < 1 {
		reps = 1
	}
	fmt.Fprintf(w, "\nFigure %s: Linux router forwarding performance on %s", name, flavor)
	if reps > 1 {
		fmt.Fprintf(w, " (mean ± sd over %d repetitions)", reps)
	}
	fmt.Fprintln(w)
	topo, err := casestudy.New(flavor, casestudy.WithSeed(seed))
	if err != nil {
		return err
	}
	defer topo.Close()

	fmt.Fprintf(w, "%-14s %20s %20s\n", "offered [Mpps]", "rx 64B [Mpps]", "rx 1500B [Mpps]")
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
			fmt.Fprintf(w, "%-14.3f %12.4f ±%.4f %12.4f ±%.4f\n",
				float64(rate)/1e6, mean[64], sd[64], mean[1500], sd[1500])
		} else {
			fmt.Fprintf(w, "%-14.3f %20.4f %20.4f\n", float64(rate)/1e6, mean[64], mean[1500])
		}
	}
	fmt.Fprintf(w, "max forwarding: 64B %.3f Mpps, 1500B %.3f Mpps", maxRx[64], maxRx[1500])
	switch flavor {
	case casestudy.BareMetal:
		fmt.Fprintf(w, "   (paper: 1.75 / 0.80)\n")
	default:
		fmt.Fprintf(w, "   (paper: drop-free <= 0.04, unstable beyond)\n")
	}
	return nil
}

// runRobustness sweeps the packet size at a fixed overload, exposing the
// crossover between the CPU-bound regime (below ~694 B the 1.75 Mpps
// forwarding limit governs) and the bandwidth-bound regime (above it, the
// 10 Gbit/s line rate governs). This is the "low robustness" concern the
// paper cites from Zilberman's NDP artifact evaluation: a small change in
// the investigated packet size moves the system into a different regime.
func runRobustness(w io.Writer) error {
	fmt.Fprintln(w, "\nRobustness: packet-size sensitivity of the bare-metal Linux router at 1.8 Mpps offered")
	topo, err := casestudy.New(casestudy.BareMetal)
	if err != nil {
		return err
	}
	defer topo.Close()
	fmt.Fprintf(w, "%-10s %14s %16s %10s\n", "size [B]", "rx [Mpps]", "line rate [Mpps]", "regime")
	for _, size := range []int{64, 128, 256, 512, 640, 680, 700, 720, 768, 1024, 1280, 1500} {
		p, err := topo.DirectRun(size, 1_800_000, 1)
		if err != nil {
			return err
		}
		line := packet.LineRatePPS(10e9, size) / 1e6
		regime := "CPU-bound"
		if line < 1.75 {
			regime = "NIC-bound"
		}
		fmt.Fprintf(w, "%-10d %14.4f %16.4f %10s\n", size, p.RxMpps, line, regime)
	}
	fmt.Fprintln(w, "crossover at ~694 B: the same experiment, a slightly different packet size, a different bottleneck")
	return nil
}

// runAppendix executes the full Appendix A workflow on both platforms:
// 60 measurement runs each, evaluation plots, and publication bundles.
func runAppendix(w io.Writer, dir string, seed uint64) error {
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "pos-appendix-*")
		if err != nil {
			return err
		}
	}
	store, err := results.NewStore(dir)
	if err != nil {
		return err
	}
	for _, flavor := range []casestudy.Flavor{casestudy.BareMetal, casestudy.Virtual} {
		if err := appendixOn(w, store, flavor, seed); err != nil {
			return err
		}
	}
	fmt.Fprintln(w, "\nall appendix artifacts under", dir)
	return nil
}

// appendixOn runs, plots and publishes Appendix A on one platform, closing
// its testbed however the workflow ends.
func appendixOn(w io.Writer, store *results.Store, flavor casestudy.Flavor, seed uint64) error {
	fmt.Fprintf(w, "\nAppendix A on %s (60 runs)\n", flavor)
	topo, err := casestudy.New(flavor, casestudy.WithSeed(seed))
	if err != nil {
		return err
	}
	defer topo.Close()
	exp := topo.Experiment(casestudy.PaperSweep())
	runner := topo.Testbed.Runner()
	runner.Events = eventlog.NewPipeline()
	stop := runner.Events.Watch(0, func(ev eventlog.Event) {
		if ev.Typ == "progress" && ev.TotalRuns > 0 {
			fmt.Fprintf(w, "\r  run %2d/%d (%s)          ", ev.Run+1, ev.TotalRuns, ev.Message)
		}
	})
	sum, err := runner.Run(context.Background(), exp, store)
	stop()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n  %d runs complete, %d failed\n", sum.TotalRuns, sum.FailedRuns)

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
	figTitle := "Linux router forwarding (" + string(flavor) + ")"
	for name, data := range plot.ExportNamed("figures/throughput", plot.Throughput(figTitle, series)) {
		if err := rec.AddExperimentArtifact(name, data); err != nil {
			return err
		}
	}
	archive := filepath.Join(store.Root(), exp.Name+"-"+rec.ID()+".tar.gz")
	m, err := publish.Release(rec, exp.User, exp.Name, archive)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  published %d artifacts -> %s\n", len(m.Files), archive)
	return nil
}
