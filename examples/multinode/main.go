// Multinode: a distributed experiment across 15 testbed nodes, the scale the
// paper reports using pos for ("distributed network experiments involving 15
// nodes" — a secret-sharing multiparty-computation study, Sec. 6). Every
// node runs the same scripts; barriers synchronize the computation rounds;
// each node uploads its own timing results, which the evaluation phase
// aggregates into per-payload statistics.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"time"

	"pos/internal/core"
	"pos/internal/eventlog"
	"pos/internal/image"
	"pos/internal/node"
	"pos/internal/results"
	"pos/internal/testbed"
)

const parties = 15

func main() {
	log.SetFlags(0)
	tb := testbed.New()
	defer tb.Close()
	if err := tb.Images.Add(image.DefaultDebianBuster()); err != nil {
		log.Fatal(err)
	}

	// 15 peers: vnode00 … vnode14, each with the MPC workload deployed on
	// boot (the analog of the binary the live image ships).
	var hosts []core.HostSpec
	for i := 0; i < parties; i++ {
		name := fmt.Sprintf("vnode%02d", i)
		h, err := tb.AddNode(name)
		if err != nil {
			log.Fatal(err)
		}
		idx := i
		h.OnBoot(func(n *node.Node) error {
			return n.RegisterCommand("mpc_round", mpcRound(idx))
		})
		hosts = append(hosts, core.HostSpec{
			Role:  fmt.Sprintf("party%02d", i),
			Node:  name,
			Image: "debian-buster",
			Setup: `echo party $ROLE on $NODE ready
pos_sync setup_done ` + fmt.Sprint(parties) + `
`,
			Measurement: `pos_sync round_start ` + fmt.Sprint(parties) + `
pos_run timing.txt mpc_round $payload_bytes
pos_sync round_done ` + fmt.Sprint(parties) + `
`,
		})
	}

	exp := &core.Experiment{
		Name: "mpc-secret-sharing",
		User: "user",
		LoopVars: []core.LoopVar{
			{Name: "payload_bytes", Values: []string{"1024", "16384", "262144"}},
		},
		Hosts:    hosts,
		Duration: time.Hour,
	}

	dir, err := os.MkdirTemp("", "pos-multinode-*")
	if err != nil {
		log.Fatal(err)
	}
	store, err := results.NewStore(dir)
	if err != nil {
		log.Fatal(err)
	}
	runner := tb.Runner()
	runner.Events = eventlog.NewPipeline()
	stop := runner.Events.Watch(0, func(ev eventlog.Event) {
		if ev.Typ == "progress" && ev.TotalRuns > 0 {
			fmt.Printf("run %d/%d: %s\n", ev.Run+1, ev.TotalRuns, ev.Message)
		}
	})
	sum, err := runner.Run(context.Background(), exp, store)
	stop()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d runs across %d nodes complete\n\n", sum.TotalRuns, parties)

	// Evaluation: aggregate the per-party timings per payload size.
	ids, _ := store.ListExperiments(exp.User, exp.Name)
	rec, err := store.OpenExperiment(exp.User, exp.Name, ids[len(ids)-1])
	if err != nil {
		log.Fatal(err)
	}
	runs, err := rec.Runs()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-14s %10s %10s %10s\n", "payload [B]", "min [ms]", "median", "max")
	for _, run := range runs {
		meta, err := rec.ReadRunMeta(run)
		if err != nil {
			log.Fatal(err)
		}
		var elapsed []float64
		for i := 0; i < parties; i++ {
			data, err := rec.ReadRunArtifact(run, fmt.Sprintf("vnode%02d", i), "timing.txt")
			if err != nil {
				log.Fatal(err)
			}
			var party int
			var ms float64
			if _, err := fmt.Sscanf(string(data), "party=%d elapsed_ms=%f", &party, &ms); err != nil {
				log.Fatalf("bad timing artifact %q: %v", data, err)
			}
			elapsed = append(elapsed, ms)
		}
		sort.Float64s(elapsed)
		fmt.Printf("%-14s %10.1f %10.1f %10.1f\n",
			meta.LoopVars["payload_bytes"], elapsed[0], elapsed[len(elapsed)/2], elapsed[len(elapsed)-1])
	}
	fmt.Println("\nartifacts:", rec.Dir())
}

// mpcRound models one secret-sharing round: pairwise share exchange and
// reconstruction, with cost growing in the payload size and the number of
// parties. Deterministic per (party, payload) so the experiment reproduces.
func mpcRound(party int) node.Command {
	return func(_ context.Context, n *node.Node, args []string, stdout, _ node.ErrWriter) error {
		if len(args) != 1 {
			return fmt.Errorf("usage: mpc_round <payload-bytes>")
		}
		payload, err := strconv.Atoi(args[0])
		if err != nil || payload <= 0 {
			return fmt.Errorf("mpc_round: bad payload %q", args[0])
		}
		// Cost model: per-pair share transfer (payload/bandwidth) plus
		// polynomial evaluation per share; small per-party skew.
		const linkMBps = 100.0
		transferMS := float64(payload) / (linkMBps * 1000) * float64(parties-1)
		computeMS := 0.002 * float64(parties) * float64(payload) / 1024
		skew := 1 + 0.05*float64(party%5)/5
		elapsed := (transferMS + computeMS) * skew
		fmt.Fprintf(writer{stdout}, "party=%d elapsed_ms=%.3f\n", party, elapsed)
		return nil
	}
}

type writer struct{ w node.ErrWriter }

func (w writer) Write(p []byte) (int, error) { return w.w.Write(p) }
