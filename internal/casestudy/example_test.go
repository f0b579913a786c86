package casestudy_test

import (
	"fmt"

	"pos/internal/casestudy"
)

// ExampleNew runs one measurement point of the paper's case study on the
// bare-metal platform.
func ExampleNew() {
	topo, err := casestudy.New(casestudy.BareMetal)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer topo.Close()
	point, err := topo.DirectRun(64, 100_000, 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("offered 0.100 Mpps, received %.3f Mpps, loss %.0f%%\n",
		point.RxMpps, point.LossRatio*100)
	// Output: offered 0.100 Mpps, received 0.100 Mpps, loss 0%
}
