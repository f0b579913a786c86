package compare_test

import (
	"os"

	"pos/internal/compare"
)

// ExampleWrite regenerates the paper's Table 1: Chameleon, CloudLab,
// Grid'5000, OMF, NEPI, SNDZoo and pos against requirements R1-R5, of which
// only pos supports all five.
func ExampleWrite() {
	_ = compare.Write(os.Stdout)
	// Output:
	//              Heterog. (R1)  Isolat. (R2)   Recover. (R3)  Autom. (R4)    Publish. (R5)
	// Chameleon    ✓              ○              ✓              n.a.           n.a.
	// CloudLab     ✓              ○              ✓              n.a.           n.a.
	// Grid'5000    ✓              ○              ✓              n.a.           n.a.
	// OMF          n.a.           n.a.           n.a.           ✓              ✗
	// NEPI         n.a.           n.a.           n.a.           ✓              ✗
	// SNDZoo       n.a.           n.a.           n.a.           ✓              ○
	// pos          ✓              ✓              ✓              ✓              ✓
	// ✓ fully supported   ○ partially supported   ✗ not supported   n.a. out of scope
}
