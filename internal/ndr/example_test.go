package ndr_test

import (
	"fmt"

	"pos/internal/casestudy"
	"pos/internal/ndr"
)

// ExampleSearch finds the highest drop-free rate of the bare-metal DuT.
func ExampleSearch() {
	topo, err := casestudy.New(casestudy.BareMetal)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer topo.Close()
	res, err := ndr.Search(
		ndr.Config{MinPPS: 10_000, MaxPPS: 2_500_000, Precision: 0.01},
		func(rate float64) (float64, error) {
			p, err := topo.DirectRun(64, rate, 1)
			if err != nil {
				return 0, err
			}
			return p.LossRatio, nil
		})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("NDR %.2f Mpps\n", res.NDRPPS/1e6)
	// Output: NDR 1.74 Mpps
}
