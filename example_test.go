package pos_test

import (
	"context"
	"fmt"
	"os"

	"pos/internal/casestudy"
	"pos/internal/results"
)

// Example_workflow runs a miniature experiment end to end through the
// packages — what `posctl run -f` does for a campaign file.
func Example_workflow() {
	topo, err := casestudy.New(casestudy.BareMetal)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer topo.Close()
	dir, err := os.MkdirTemp("", "pos-example-*")
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
	exp := topo.Experiment(casestudy.SweepConfig{
		Sizes: []int{64}, RatesPPS: []int{10_000, 20_000}, RuntimeSec: 1,
	})
	sum, err := topo.Testbed.Runner().Run(context.Background(), exp, store)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%d runs, %d failed\n", sum.TotalRuns, sum.FailedRuns)
	// Output: 2 runs, 0 failed
}
