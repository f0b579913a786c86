package testbed_test

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"

	"pos/internal/core"
	"pos/internal/image"
	"pos/internal/node"
	"pos/internal/results"
	"pos/internal/testbed"
)

// Example runs a distributed experiment across 15 nodes, the scale the paper
// reports pos was used at (a secret-sharing multiparty computation, Sec. 6).
// Every node runs the same scripts, barriers synchronize the computation
// rounds, each node uploads its own timing, and the evaluation aggregates
// the timings per payload size.
func Example() {
	const parties = 15
	tb := testbed.New()
	defer tb.Close()
	if err := tb.Images.Add(image.DefaultDebianBuster()); err != nil {
		fmt.Println(err)
		return
	}
	var hosts []core.HostSpec
	for i := 0; i < parties; i++ {
		name := fmt.Sprintf("vnode%02d", i)
		h, err := tb.AddNode(name)
		if err != nil {
			fmt.Println(err)
			return
		}
		party := i
		// The workload is deployed on boot, as a live image would ship it.
		h.OnBoot(func(n *node.Node) error { return n.RegisterCommand("mpc_round", mpcRound(party, parties)) })
		hosts = append(hosts, core.HostSpec{
			Role:  fmt.Sprintf("party%02d", i),
			Node:  name,
			Image: "debian-buster",
			Setup: "pos_sync setup_done 15\n",
			Measurement: `pos_sync round_start 15
pos_run timing.txt mpc_round $payload_bytes
pos_sync round_done 15
`,
		})
	}
	exp := &core.Experiment{
		Name:     "mpc-secret-sharing",
		User:     "user",
		LoopVars: []core.LoopVar{{Name: "payload_bytes", Values: []string{"1024", "16384", "262144"}}},
		Hosts:    hosts,
		Duration: time.Hour,
	}
	dir, err := os.MkdirTemp("", "pos-testbed-example-*")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer os.RemoveAll(dir)
	store, err := results.NewStore(dir)
	if err != nil {
		fmt.Println(err)
		return
	}
	sum, err := tb.Runner().Run(context.Background(), exp, store)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%d runs across %d nodes, %d failed\n", sum.TotalRuns, parties, sum.FailedRuns)

	ids, err := store.ListExperiments(exp.User, exp.Name)
	if err != nil {
		fmt.Println(err)
		return
	}
	rec, err := store.OpenExperiment(exp.User, exp.Name, ids[len(ids)-1])
	if err != nil {
		fmt.Println(err)
		return
	}
	runs, err := rec.Runs()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%-12s %9s %9s %9s\n", "payload [B]", "min [ms]", "median", "max")
	for _, run := range runs {
		meta, err := rec.ReadRunMeta(run)
		if err != nil {
			fmt.Println(err)
			return
		}
		var elapsed []float64
		for i := 0; i < parties; i++ {
			data, err := rec.ReadRunArtifact(run, fmt.Sprintf("vnode%02d", i), "timing.txt")
			if err != nil {
				fmt.Println(err)
				return
			}
			var party int
			var ms float64
			if _, err := fmt.Sscanf(string(data), "party=%d elapsed_ms=%f", &party, &ms); err != nil {
				fmt.Printf("timing %q: %v\n", data, err)
				return
			}
			elapsed = append(elapsed, ms)
		}
		sort.Float64s(elapsed)
		fmt.Printf("%-12s %9.1f %9.1f %9.1f\n",
			meta.LoopVars["payload_bytes"], elapsed[0], elapsed[len(elapsed)/2], elapsed[len(elapsed)-1])
	}
	// Output:
	// 3 runs across 15 nodes, 0 failed
	// payload [B]   min [ms]    median       max
	// 1024               0.2       0.2       0.2
	// 16384              2.8       2.8       2.9
	// 262144            44.4      45.3      46.2
}

// mpcRound models one secret-sharing round of party among parties: the
// pairwise share transfer plus polynomial evaluation, both growing with the
// payload, with a small per-party skew. It is deterministic per (party,
// payload), so the experiment reproduces.
func mpcRound(party, parties int) node.Command {
	return func(_ context.Context, _ *node.Node, args []string, stdout, _ node.ErrWriter) error {
		if len(args) != 1 {
			return fmt.Errorf("usage: mpc_round <payload-bytes>")
		}
		payload, err := strconv.Atoi(args[0])
		if err != nil || payload <= 0 {
			return fmt.Errorf("mpc_round: bad payload %q", args[0])
		}
		const linkMBps = 100.0
		transferMS := float64(payload) / (linkMBps * 1000) * float64(parties-1)
		computeMS := 0.002 * float64(parties) * float64(payload) / 1024
		skew := 1 + 0.05*float64(party%5)/5
		_, err = fmt.Fprintf(stdout, "party=%d elapsed_ms=%.3f\n", party, (transferMS+computeMS)*skew)
		return err
	}
}
