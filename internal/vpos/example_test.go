package vpos_test

import (
	"fmt"
	"os"
	"path/filepath"

	"pos/internal/eval"
	"pos/internal/publish"
	"pos/internal/vpos"
)

// Example walks Appendix A.1 against the virtual-testbed-as-a-service
// endpoint: an operator serves it, a researcher creates a vpos instance
// over HTTP, runs the case study in it, evaluates the instance's results
// tree like a hardware testbed's, checks the artifact and publishes it.
func Example() {
	base, err := os.MkdirTemp("", "pos-vpos-example-*")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer os.RemoveAll(base)
	mgr, err := vpos.NewManager(base)
	if err != nil {
		fmt.Println(err)
		return
	}
	srv, err := vpos.Serve(mgr)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer srv.Close()

	// Everything the researcher does goes over HTTP.
	c := vpos.NewClient(srv.Addr())
	inst, err := c.Create()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("instance %s, nodes %v\n", inst.ID, inst.Nodes)
	info, err := c.Run(inst.ID, []int{64, 1500}, []int{10_000, 40_000, 150_000, 300_000}, 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("experiment %s: %d runs, %d failed\n", info.Experiment, info.TotalRuns, info.FailedRuns)

	store, err := mgr.Results(inst.ID)
	if err != nil {
		fmt.Println(err)
		return
	}
	ids, err := store.ListExperiments("user", info.Experiment)
	if err != nil || len(ids) == 0 {
		fmt.Println("results missing:", err)
		return
	}
	rec, err := store.OpenExperiment("user", info.Experiment, ids[len(ids)-1])
	if err != nil {
		fmt.Println(err)
		return
	}
	runs, err := eval.LoadRuns(rec, "vriga", "moongen.log")
	if err != nil {
		fmt.Println(err)
		return
	}
	series, err := eval.ThroughputSeries(runs, "pkt_sz", "pkt_rate", 1e-6)
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, s := range series {
		fmt.Printf("%4s B:", s.Name)
		for _, p := range s.Points {
			fmt.Printf("  %.3f→%.3f", p.X, p.Y)
		}
		fmt.Println()
	}

	check, err := publish.Check(rec)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Print(check.Render())
	m, err := publish.Release(rec, "user", info.Experiment, filepath.Join(base, inst.ID+".tar.gz"))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("published %d files\n", len(m.Files))
	fmt.Println("destroy:", c.Destroy(inst.ID))
	// Output:
	// instance vpos-0001, nodes [vriga vtartu]
	// experiment linux-router-vpos: 8 runs, 0 failed
	// 1500 B:  0.010→0.010  0.040→0.040  0.150→0.051  0.300→0.052
	//   64 B:  0.010→0.010  0.040→0.040  0.150→0.063  0.300→0.060
	// artifact check: 8 runs inspected, 0 findings
	// result: PUBLISHABLE
	// published 62 files
	// destroy: <nil>
}
