// Quickstart: run a miniature version of the paper's case study end to end —
// allocate the two-node testbed, boot both hosts from the pinned Debian
// Buster live image, sweep a few rate/size combinations, and print where the
// collected artifacts landed.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"pos/internal/casestudy"
	"pos/internal/core"
	"pos/internal/eval"
	"pos/internal/eventlog"
	"pos/internal/results"
)

func main() {
	log.SetFlags(0)

	// Build the paper's two-node topology on the bare-metal platform.
	topo, err := casestudy.New(casestudy.BareMetal)
	if err != nil {
		log.Fatal(err)
	}
	defer topo.Close()

	// Results land in a pos-style tree: <root>/<user>/<experiment>/<ts>/.
	dir, err := os.MkdirTemp("", "pos-quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	store, err := results.NewStore(dir)
	if err != nil {
		log.Fatal(err)
	}

	// A small sweep: 2 packet sizes x 3 rates = 6 measurement runs.
	exp := topo.Experiment(casestudy.SweepConfig{
		Sizes:      []int{64, 1500},
		RatesPPS:   []int{10_000, 100_000, 300_000},
		RuntimeSec: 1,
	})
	fmt.Printf("experiment %q: %d runs over hosts %v\n",
		exp.Name, core.NumRuns(exp.LoopVars), exp.NodeNames())

	// The event pipeline is the run's execution record: watch it live, and
	// find it journaled under the experiment's events/ afterwards.
	runner := topo.Testbed.Runner()
	runner.Events = eventlog.NewPipeline()
	stop := runner.Events.Watch(0, func(ev eventlog.Event) {
		if ev.Typ == "progress" && ev.TotalRuns > 0 {
			fmt.Printf("  run %2d/%d  %s\n", ev.Run+1, ev.TotalRuns, ev.Message)
		}
	})
	sum, err := runner.Run(context.Background(), exp, store)
	stop()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ncompleted %d runs (%d failed)\n", sum.TotalRuns, sum.FailedRuns)
	fmt.Println("artifacts:", sum.ResultsDir)
	fmt.Println("execution record: posctl watch -dir", sum.ResultsDir)

	// Evaluation: parse the uploaded MoonGen logs and print the series.
	ids, err := store.ListExperiments(exp.User, exp.Name)
	if err != nil || len(ids) == 0 {
		log.Fatalf("no experiments recorded: %v", err)
	}
	rec, err := store.OpenExperiment(exp.User, exp.Name, ids[len(ids)-1])
	if err != nil {
		log.Fatal(err)
	}
	runs, err := eval.LoadRuns(rec, topo.LoadGen, "moongen.log")
	if err != nil {
		log.Fatal(err)
	}
	series, err := eval.ThroughputSeries(runs, "pkt_sz", "pkt_rate", 1e-6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nthroughput (received Mpps over offered Mpps):")
	for _, s := range series {
		fmt.Printf("  %5s B:", s.Name)
		for _, p := range s.Points {
			fmt.Printf("  %.3f→%.3f", p.X, p.Y)
		}
		fmt.Println()
	}
}
