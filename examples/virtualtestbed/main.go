// Virtualtestbed: the Appendix A.1 user journey against the
// virtual-testbed-as-a-service endpoint. The program starts the service,
// then acts as a remote researcher: create a vpos instance over HTTP, run
// the case-study experiment inside it, evaluate the results, verify the
// artifact's completeness, and publish the bundle — without ever touching
// testbed hardware.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"pos/internal/eval"
	"pos/internal/publish"
	"pos/internal/vpos"
)

func main() {
	log.SetFlags(0)
	base, err := os.MkdirTemp("", "pos-virtualtestbed-*")
	if err != nil {
		log.Fatal(err)
	}

	// Operator side: run the service.
	mgr, err := vpos.NewManager(base)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := vpos.Serve(mgr)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Println("virtual testbed service at http://" + srv.Addr())

	// Researcher side: everything below goes over HTTP.
	c := vpos.NewClient(srv.Addr())
	inst, err := c.Create()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("created instance %s with nodes %v\n", inst.ID, inst.Nodes)

	info, err := c.Run(inst.ID, []int{64, 1500}, []int{10_000, 40_000, 150_000, 300_000}, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("experiment %s: %d runs (%d failed) in %v\n",
		info.Experiment, info.TotalRuns, info.FailedRuns, info.FinishedAt.Sub(info.StartedAt))

	// Evaluation happens on the instance's results tree, exactly like on
	// the hardware testbed.
	store, err := mgr.Results(inst.ID)
	if err != nil {
		log.Fatal(err)
	}
	ids, err := store.ListExperiments("user", info.Experiment)
	if err != nil || len(ids) == 0 {
		log.Fatalf("results missing: %v", err)
	}
	rec, err := store.OpenExperiment("user", info.Experiment, ids[len(ids)-1])
	if err != nil {
		log.Fatal(err)
	}
	runs, err := eval.LoadRuns(rec, "vriga", "moongen.log")
	if err != nil {
		log.Fatal(err)
	}
	series, err := eval.ThroughputSeries(runs, "pkt_sz", "pkt_rate", 1e-6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nvpos throughput (received Mpps over offered Mpps):")
	for _, s := range series {
		fmt.Printf("  %5s B:", s.Name)
		for _, p := range s.Points {
			fmt.Printf("  %.3f→%.3f", p.X, p.Y)
		}
		fmt.Println()
	}

	// Artifact evaluation before release.
	check, err := publish.Check(rec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("\n" + check.Render())
	if !check.OK() {
		log.Fatal("artifact incomplete")
	}
	archive := filepath.Join(base, inst.ID+"-artifacts.tar.gz")
	m, err := publish.Release(rec, "user", info.Experiment, archive)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("published %d files -> %s\n", len(m.Files), archive)

	if err := c.Destroy(inst.ID); err != nil {
		log.Fatal(err)
	}
	fmt.Println("instance destroyed; artifacts preserved under", base)
}
