package core_test

import (
	"fmt"

	"pos/internal/core"
)

// ExampleCrossProduct shows the loop-variable expansion at the heart of the
// measurement phase: every combination becomes one run.
func ExampleCrossProduct() {
	combos, _ := core.CrossProduct([]core.LoopVar{
		{Name: "pkt_sz", Values: []string{"64", "1500"}},
		{Name: "pkt_rate", Values: []string{"10000", "20000"}},
	})
	for _, c := range combos {
		fmt.Println(c.Key())
	}
	// Output:
	// pkt_rate=10000,pkt_sz=64
	// pkt_rate=20000,pkt_sz=64
	// pkt_rate=10000,pkt_sz=1500
	// pkt_rate=20000,pkt_sz=1500
}

// ExampleMerge shows pos variable precedence: global < local < loop.
func ExampleMerge() {
	global := core.Vars{"port": "eno1", "runtime": "2"}
	local := core.Vars{"port": "eno2"}
	loop := core.Vars{"pkt_sz": "64"}
	merged := core.Merge(global, local, loop)
	fmt.Println(merged["port"], merged["runtime"], merged["pkt_sz"])
	// Output: eno2 2 64
}
