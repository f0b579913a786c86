package compare_test

import (
	"os"

	"pos/internal/compare"
)

// ExampleWrite regenerates the paper's Table 1.
func ExampleWrite() {
	_ = compare.Write(os.Stdout)
	// The table lists Chameleon, CloudLab, Grid'5000, OMF, NEPI, SNDZoo,
	// and pos against requirements R1-R5; only pos supports all five.
}
